#!/usr/bin/env bash
# Builds the benchmark and dego-server from this checkout, then runs the
# benchmark with the given arguments (see DESIGN.md). Everything it writes
# stays under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOTELEMETRY=off \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
go -C perfbench build -o "$out/" . github.com/adjusted-objects/dego/cmd/dego-server >&2
exec "$out/perfbench" -bin "$out" "$@"
