package main

import (
	"errors"
	"testing"
	"time"

	"github.com/adjusted-objects/dego/internal/server"
)

func TestParseHelpers(t *testing.T) {
	ints, err := parseInts("100,200")
	if err != nil || len(ints) != 2 || ints[1] != 200 {
		t.Fatalf("parseInts = %v, %v", ints, err)
	}
	if _, err := parseInts("x"); err == nil {
		t.Fatal("bad int accepted")
	}
	floats, err := parseFloats("0, 0.5 ,1")
	if err != nil || len(floats) != 3 || floats[1] != 0.5 {
		t.Fatalf("parseFloats = %v, %v", floats, err)
	}
	if _, err := parseFloats("y"); err == nil {
		t.Fatal("bad float accepted")
	}
}

func TestRunRejectsUnknownFigure(t *testing.T) {
	if err := run([]string{"-fig", "3"}); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestParseRates(t *testing.T) {
	rates, err := parseRates("2k, 4K ,0.5m,800")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2000, 4000, 500_000, 800}
	for i, r := range rates {
		if r != want[i] {
			t.Fatalf("parseRates[%d] = %v, want %v", i, r, want[i])
		}
	}
	for _, bad := range []string{"x", "1g", "0", "-2k", "", "nan", "inf"} {
		if _, err := parseRates(bad); err == nil {
			t.Fatalf("parseRates(%q) accepted", bad)
		}
	}
}

// Regression: an unknown store kind must surface the typed
// *server.UnknownStoreKindError and fail the run before any server boots
// or socket dials. The time bound is the "before dialing anything" proof: validation fails in
// microseconds, a sweep would take seconds.
func TestUnknownStoreKindFailsTypedBeforeDialing(t *testing.T) {
	for _, args := range [][]string{
		{"-openloop", "-stores", "bogus", "-rates", "1k"},
	} {
		start := time.Now()
		err := run(args)
		var uk *server.UnknownStoreKindError
		if !errors.As(err, &uk) {
			t.Fatalf("run(%v) = %v, want *server.UnknownStoreKindError", args, err)
		}
		if uk.Kind != "bogus" {
			t.Fatalf("run(%v): rejected kind %q, want %q", args, uk.Kind, "bogus")
		}
		if took := time.Since(start); took > time.Second {
			t.Fatalf("run(%v) took %v before failing: work happened before validation", args, took)
		}
	}
}

// Regression: a stray comma in -stores must error, not silently resolve
// the empty entry to the default store kind and measure the wrong thing.
func TestEmptyStoreKindRejected(t *testing.T) {
	for _, stores := range []string{"adaptive,", ",striped", "adaptive,,striped"} {
		if err := run([]string{"-openloop", "-stores", stores, "-rates", "1k"}); err == nil {
			t.Fatalf("-stores %q accepted", stores)
		}
	}
}
