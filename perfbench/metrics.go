package main

import (
	"fmt"
	"math"
	"os"
	"strings"
)

// endToEnd lists the metrics a plain run prints, with their units; they
// must match BENCHMARK.json (metrics_test.go checks).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"capacity_ops_s", "1/s"},
	{"p50_us.low", "us"},
	{"p50_us.high", "us"},
	{"cpu_us_per_op", "us"},
	{"mem_mb", "MB"},
}

// perLayer lists the metrics a traced run prints.
var perLayer = func() []struct{ name, unit string } {
	type m = struct{ name, unit string }
	out := []m{
		{"failed_share", "share"},
		{"gen.lag_p50_us.low", "us"}, {"gen.lag_p99_us.low", "us"},
		{"gen.lag_p50_us.high", "us"}, {"gen.lag_p99_us.high", "us"},
		{"gen.busy_share.low", "share"}, {"gen.busy_share.high", "share"},
		{"gen.busy_share.capacity", "share"},
		{"p90_us.low", "us"}, {"p90_us.high", "us"},
		{"p99_us.low", "us"}, {"p99_us.low.beyond", "count"},
		{"p999_us.low", "us"}, {"p999_us.low.beyond", "count"},
		{"p99_us.high", "us"}, {"p99_us.high.beyond", "count"},
		{"p999_us.high", "us"}, {"p999_us.high.beyond", "count"},
		{"server.cmds_per_batch.high", "count"},
		{"server.gc_cycles", "count"}, {"server.gc_cpu_ms", "ms"},
		{"server.hop_ns", "ns"},
		{"ledger.coverage", "share"},
		{"trace.overhead_share", "share"},
		{"dego.facade_ns.shardmap", "ns"}, {"dego.facade_ns.retwis", "ns"},
		{"retwis.gc_cpu_share", "share"},
	}
	for _, s := range ledgerStreams {
		out = append(out,
			m{"wire.decode_ns_per_cmd." + s, "ns"}, m{"wire.decode_allocs_per_cmd." + s, "count"},
			m{"wire.encode_ns_per_reply." + s, "ns"}, m{"wire.encode_allocs_per_reply." + s, "count"},
			m{"wire.bytes_in_per_op." + s, "B"}, m{"wire.bytes_out_per_op." + s, "B"},
			m{"server.exec_ns_per_cmd." + s, "ns"}, m{"server.exec_allocs_per_cmd." + s, "count"})
	}
	for _, v := range ledgerVerbs {
		out = append(out, m{"server.verb." + v + "_ns", "ns"})
	}
	for _, k := range storeKinds {
		out = append(out, m{"server.kind." + k + ".exec_ns_per_cmd", "ns"})
	}
	for _, k := range retwisKinds {
		out = append(out, m{"retwis." + k + ".ns_per_op", "ns"}, m{"retwis." + k + ".allocs_per_op", "count"})
	}
	return out
}()

var (
	ledgerStreams = []string{"kv", "retwis"}
	ledgerVerbs   = []string{"GET", "SET", "INCR", "SADD", "SREM", "LPUSH", "LTRIM", "LRANGE", "ZADD", "ZREMRANGEBYSCORE"}
	storeKinds    = []string{"adaptive", "segmented", "striped", "flat"}
	retwisKinds   = []string{"AddUser", "Follow", "Post", "Timeline", "Group", "UpdateProfile"}
)

// report gathers a run's metrics by name; finish keeps the set the mode
// prints and fails if any of it is missing.
type report struct {
	m         map[string]metric
	attempted int
	failed    int
	problems  []string
}

func newReport() *report { return &report{m: map[string]metric{}} }

func (r *report) set(name string, v float64) {
	for _, l := range [][]struct{ name, unit string }{endToEnd, perLayer} {
		for _, d := range l {
			if d.name == name {
				r.m[name] = metric{Value: v, Unit: d.unit}
				return
			}
		}
	}
	panic("perfbench: unlisted metric " + name)
}

func (r *report) finish(trace bool) (*result, error) {
	want := endToEnd
	if trace {
		want = perLayer
		r.set("failed_share", float64(r.failed)/float64(max(1, r.attempted)))
	}
	res := &result{Correct: r.failed == 0 && len(r.problems) == 0,
		Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	var missing []string
	for _, d := range want {
		v, ok := r.m[d.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = v
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	for _, p := range r.problems {
		fmt.Println("# check failed:", p)
	}
	return res, nil
}

func runWorkload(o *options) (*result, error) {
	r := newReport()
	switch o.workload {
	case kvWire.name, retwisWire.name:
		ww := kvWire
		if o.workload == retwisWire.name {
			ww = retwisWire
		}
		if err := pin(o); err != nil {
			return nil, err
		}
		fmt.Printf("# generator pid %d: GOMAXPROCS=2, cpu %d; dego-server cpu %d\n",
			os.Getpid(), o.genCPU, o.serverCPU)
		wr, err := ww.run(o)
		if err != nil {
			return nil, err
		}
		wr.fill(r)
		if o.trace {
			own := "retwis"
			if ww == kvWire {
				own = "kv"
			}
			if err := ledger(o, r, wr.capCPUus*1e3, own); err != nil {
				return nil, err
			}
		}
	case "retwis-lib":
		if err := runLib(o, r); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	return r.finish(o.trace)
}

func (wr *wireRun) fill(r *report) {
	r.attempted += wr.attempted
	r.failed += wr.failed
	r.problems = append(r.problems, wr.problems...)
	r.set("setup_s", median(wr.setup))
	r.set("capacity_ops_s", wr.capOpsS)
	r.set("cpu_us_per_op", wr.highCPUus)
	r.set("mem_mb", wr.memMB)
	r.set("gen.busy_share.capacity", wr.capGenBusy)
	r.set("server.gc_cycles", float64(wr.gc.cycles))
	r.set("server.gc_cpu_ms", wr.gc.cpuMs)
	r.set("server.cmds_per_batch.high", wr.high.cmdsPerWrite)
	fillLatency(r, "low", wr.low)
	fillLatency(r, "high", wr.high)
	fmt.Printf("# capacity %.0f ops/s (blocks %.0f; server %.2f us/op, generator busy %.2f)\n",
		wr.capOpsS, wr.capBlocks, wr.capCPUus, wr.capGenBusy)
	if wr.capGenBusy > 0.9 {
		fmt.Println("# generator-bound at capacity: capacity_ops_s measures the generator")
	}
}

func fillLatency(r *report, phase string, st latencyStats) {
	r.set("p50_us."+phase, st.p50)
	r.set("p90_us."+phase, st.p90)
	r.set("p99_us."+phase, st.p99)
	r.set("p99_us."+phase+".beyond", float64(st.n99))
	r.set("p999_us."+phase, st.p999)
	r.set("p999_us."+phase+".beyond", float64(st.n999))
	r.set("gen.lag_p50_us."+phase, st.lagP50)
	r.set("gen.lag_p99_us."+phase, st.lagP99)
	r.set("gen.busy_share."+phase, st.busy)
	fmt.Printf("# %s: %d arrivals, p50 %.1f us, p90 %.1f us, p99 %.1f us (%d beyond), lag p50 %.1f us, generator busy %.2f\n",
		phase, st.attempted, st.p50, st.p90, st.p99, st.n99, st.lagP50, st.busy)
	fmt.Printf("# %s windows: p50 %.1f us, p90 %.1f us\n", phase, st.windowP50, st.windowP90)
	if why := generatorBound(st); why != "" {
		fmt.Printf("# generator-bound in the %s phase (%s): its latency measures the generator\n", phase, why)
	}
}
