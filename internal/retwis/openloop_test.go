package retwis

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"testing"
	"time"

	"github.com/adjusted-objects/dego/internal/faultnet"
	"github.com/adjusted-objects/dego/internal/loadgen"
	"github.com/adjusted-objects/dego/internal/server"
	"github.com/adjusted-objects/dego/internal/stats"
)

// TestDrawOpsDeterministic: the op sequence is byte-identical across draws
// with the same Params — with loadgen.Schedule's matching guarantee, this
// is what makes frontier JSONs reproducible across runs and CI machines.
func TestDrawOpsDeterministic(t *testing.T) {
	p := netTestParams()
	enc := func(ops []Op) []byte {
		var buf bytes.Buffer
		if err := binary.Write(&buf, binary.LittleEndian, ops); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := enc(DrawOps(p, 4000)), enc(DrawOps(p, 4000))
	if !bytes.Equal(a, b) {
		t.Fatal("same Params produced different op sequences")
	}
	q := p
	q.Seed++
	if bytes.Equal(a, enc(DrawOps(q, 4000))) {
		t.Fatal("op sequence ignored the seed")
	}
	// A shorter draw is a prefix of a longer one: the sweep can grow n
	// without reshuffling what earlier arrivals do.
	if prefix := enc(DrawOps(p, 1000)); !bytes.Equal(a[:len(prefix)], prefix) {
		t.Fatal("shorter draw is not a prefix of the longer draw")
	}
}

func TestRunOpenLoopPoint(t *testing.T) {
	olp := OpenLoopParams{
		Workload: netTestParams(),
		Store:    server.StoreStriped,
		Rate:     2000,
		Ops:      600,
		Workers:  2,
		Pipeline: 8,
	}
	pt, err := RunOpenLoop(olp)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Store != server.StoreStriped || pt.Scheduled != 600 {
		t.Fatalf("point %+v", pt)
	}
	if pt.Executed+pt.Errors+pt.Dropped != pt.Scheduled {
		t.Fatalf("accounting leak: %+v", pt)
	}
	if pt.Executed == 0 || pt.AchievedRate <= 0 {
		t.Fatalf("nothing executed: %+v", pt)
	}
	if pt.P50us > pt.P99us || pt.P99us > pt.P999us || pt.P999us > pt.MaxUs {
		t.Fatalf("percentiles out of order: %+v", pt)
	}
	if pt.Faulted {
		t.Fatalf("clean run marked faulted: %+v", pt)
	}

	// Against a live address: the point is labelled remote and keeps the
	// same accounting identity.
	srv := startServer(t, server.StoreConfig{Shards: 2})
	olp.Addr = srv.Addr().String()
	pt, err = RunOpenLoop(olp)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Store != "remote" || pt.Scheduled != 600 {
		t.Fatalf("remote point %+v", pt)
	}
	if pt.Executed+pt.Errors+pt.Dropped != pt.Scheduled {
		t.Fatalf("remote accounting leak: %+v", pt)
	}
}

// startServer boots a dego-server on an ephemeral loopback port for the
// duration of the test.
func startServer(t *testing.T, sc server.StoreConfig) *server.Server {
	t.Helper()
	srv, err := server.New(server.Config{Store: sc})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestRunOpenLoopUnknownStoreKind(t *testing.T) {
	olp := OpenLoopParams{Workload: netTestParams(), Store: "bogus", Rate: 1000, Ops: 10}
	_, err := RunOpenLoop(olp)
	var uk *server.UnknownStoreKindError
	if !errors.As(err, &uk) || uk.Kind != "bogus" {
		t.Fatalf("err = %v, want *server.UnknownStoreKindError for bogus", err)
	}
}

func TestFrontierWalksCells(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell frontier in short mode")
	}
	base := OpenLoopParams{
		Workload: netTestParams(),
		Ops:      250,
		Workers:  2,
		QueueCap: 4096,
	}
	pts, err := Frontier(io.Discard, base,
		[]string{server.StoreStriped, server.StoreSegmented}, []int{2}, []int{4}, []float64{1000, 2000})
	if err != nil {
		t.Fatal(err)
	}
	// Each cell walks until saturation: at least the first rate ran per
	// store kind, and cells appear in order.
	if len(pts) < 2 {
		t.Fatalf("%d points, want at least one per store kind", len(pts))
	}
	stores := map[string]bool{}
	for _, pt := range pts {
		stores[pt.Store] = true
		if pt.Shards != 2 || pt.Pipeline != 4 {
			t.Fatalf("cell parameters lost: %+v", pt)
		}
		if pt.Executed+pt.Errors+pt.Dropped != pt.Scheduled {
			t.Fatalf("accounting leak: %+v", pt)
		}
	}
	if !stores[server.StoreStriped] || !stores[server.StoreSegmented] {
		t.Fatalf("missing store kinds in %v", stores)
	}
	// The frontier is the CI artifact: it must serialize round-trip.
	blob, err := json.Marshal(pts)
	if err != nil {
		t.Fatal(err)
	}
	var back []FrontierPoint
	if err := json.Unmarshal(blob, &back); err != nil || len(back) != len(pts) {
		t.Fatalf("frontier JSON round trip: %v", err)
	}
}

// TestCoordinatedOmissionDemonstration is the textbook disagreement made a
// unit test: inject one deterministic ~100ms hiccup (two scripted 50ms
// read stalls) into both a closed-loop and an open-loop run of the same
// workload over the same store.
//
// The closed loop measures service time per pipeline flush: the stalled
// flushes record ~50ms each, but while the client was blocked it simply
// issued nothing — the requests that would have arrived during the stall
// are never measured. Two slow samples out of 256 sit above the 99th
// percentile, so closed-loop p99 stays flat. The open-loop harness fixes
// arrivals in advance and measures from intended start, so every arrival
// scheduled during the hiccup records its queueing delay: open-loop p99
// absorbs the stall.
func TestCoordinatedOmissionDemonstration(t *testing.T) {
	const (
		stall      = 50 * time.Millisecond
		stallReads = 2
		totalOps   = 2048
		pipeline   = 8
		rate       = 2000.0
	)
	p := netTestParams()
	p.Users = 256
	p.Threads = 1

	stallCfg := faultnet.Config{StallAfter: 100, StallCount: stallReads, StallFor: stall}

	// Closed loop: one faulted connection driving the open loop's own
	// executor, each pipeline issued as soon as the previous one returns
	// and timed from its send (service time).
	srv := startServer(t, server.StoreConfig{Kind: server.StoreStriped})
	addr := srv.Addr().String()
	graph := BuildGraph(p)
	seeder, err := DialKV(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := SeedKV(seeder, p, graph); err != nil {
		t.Fatal(err)
	}
	seeder.Close()
	closedInjector := faultnet.New(stallCfg)
	kv, err := DialKVConfig(addr, WireConfig{Dialer: closedInjector.Dialer()})
	if err != nil {
		t.Fatal(err)
	}
	ex := &olExecutor{cl: NewNetClient(kv, graph), ops: DrawOps(p, totalOps)}
	defer ex.Close()
	jobs := make([]loadgen.Job, totalOps)
	for i := range jobs {
		jobs[i].Index = i
	}
	var closed stats.LatencyHist
	for i := 0; i < totalOps; i += pipeline {
		t0 := time.Now()
		if err := ex.Exec(jobs[i : i+pipeline]); err != nil {
			t.Fatal(err)
		}
		closed.Record(uint64(time.Since(t0).Microseconds()))
	}
	if closedInjector.Stats().Stalls != stallReads {
		t.Fatalf("closed loop: %d stalls fired, want %d — the hiccup missed the run",
			closedInjector.Stats().Stalls, stallReads)
	}

	// Open loop: same store, same op budget, arrivals fixed at 2000/s.
	open, err := RunOpenLoop(OpenLoopParams{
		Workload: p,
		Store:    server.StoreStriped,
		Rate:     rate,
		Ops:      totalOps,
		Workers:  1,
		Pipeline: pipeline,
		QueueCap: totalOps,
		Process:  loadgen.Uniform,
		Fault:    &stallCfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if open.Dropped != 0 || open.Errors != 0 {
		t.Fatalf("open loop dropped/errored: %+v", open)
	}

	stallUs := uint64(stall.Microseconds())
	closedP99, closedMax := closed.Percentile(0.99), closed.Max()

	// The stall demonstrably hit the closed-loop run (its max carries it)…
	if closedMax < stallUs {
		t.Fatalf("closed-loop max %dµs < stall %dµs: hiccup not in the measured phase", closedMax, stallUs)
	}
	// …but closed-loop p99 misses it entirely: 2 slow flushes out of 256
	// sit above the 99th percentile. (Generous bound for CI jitter — the
	// point is the order-of-magnitude gap to the stall.)
	if closedP99 >= stallUs/2 {
		t.Fatalf("closed-loop p99 = %dµs, expected it to hide the %dµs stall", closedP99, stallUs)
	}
	// Open-loop p99 absorbs it: ~200 arrivals were scheduled during the
	// ~100ms outage, half of them waited at least the full 50ms stall —
	// far more than 1%% of 2048 samples.
	if open.P99us < stallUs {
		t.Fatalf("open-loop p99 = %dµs, want >= the %dµs stall (queueing delay coordinated away)", open.P99us, stallUs)
	}
	t.Logf("closed-loop p99 %dµs (max %dµs) vs open-loop p99 %dµs under a %v stall",
		closedP99, closedMax, open.P99us, stall)
}
