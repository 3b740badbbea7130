package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/adjusted-objects/dego/internal/loadgen"
	"github.com/adjusted-objects/dego/internal/retwis"
	"github.com/adjusted-objects/dego/internal/wire"
)

// Wire workloads: the process layout is fixed so runs compare. dego-server
// runs alone on one CPU with GOMAXPROCS=1; the generator runs on the other
// with two connections.
const (
	wireConns     = 2
	pipelineDepth = 16 // ops in flight per connection in the closed loop
	cycles        = 6  // (closed loop, low, high) blocks per run
	setupRepeats  = 5
	kvKeys        = 200_000
	retwisUsers   = 50_000
)

// wireWorkload names one wire workload's rates and request streams.
type wireWorkload struct {
	name      string
	low, high float64 // open-loop arrival rates, ops/s
	capRate   float64 // expected closed-loop ops/s; sizes the fixed op count
	build     func(seed int64, nCap, nLow, nHigh int) (*wirePlan, error)
}

// wirePlan is every byte a wire run sends, encoded before set-up starts.
type wirePlan struct {
	seed            *opStream
	capa, low, high []*opStream
	posts           int // Post ops across the phases; -1 when not a retwis stream
}

func (p *wirePlan) phaseCmds() int {
	n := 0
	for _, ss := range [][]*opStream{p.capa, p.low, p.high} {
		for _, s := range ss {
			n += s.cmds
		}
	}
	return n
}

var kvWire = &wireWorkload{
	name: "kv-wire", low: 4_000, high: 10_000, capRate: 200_000,
	build: func(seed int64, nCap, nLow, nHigh int) (*wirePlan, error) {
		vals := newKVValues(kvKeys, seed)
		rng := rand.New(rand.NewSource(seed))
		return &wirePlan{
			seed:  kvSeed(vals, kvKeys),
			capa:  kvOps(rng, vals, kvKeys, nCap, wireConns),
			low:   kvOps(rng, vals, kvKeys, nLow, wireConns),
			high:  kvOps(rng, vals, kvKeys, nHigh, wireConns),
			posts: -1,
		}, nil
	},
}

// graphSeed fixes the social graph: it is the retwis workloads' data set,
// the same for every --seed, which draws the op stream and the arrival
// schedule. Drawn per seed, the graph gives the few most active users
// (low ids under the Zipf draw) a different follower count each time, and
// post fan-out, hence cost per op, moves with it.
const graphSeed = 1

// retwisParams returns the graph's parameters and the op stream's, which
// differ only in Seed.
func retwisParams(users int, seed int64) (graph, ops retwis.Params) {
	graph = retwis.DefaultParams()
	graph.Users, graph.Threads, graph.Seed = users, 1, graphSeed
	ops = graph
	ops.Seed = seed
	return graph, ops
}

var retwisWire = &wireWorkload{
	name: "retwis-wire", low: 3_000, high: 6_000, capRate: 60_000,
	build: func(seed int64, nCap, nLow, nHigh int) (*wirePlan, error) {
		gp, op := retwisParams(retwisUsers, seed)
		g := retwis.BuildGraph(gp)
		seedStream, err := retwisSeed(gp, g)
		if err != nil {
			return nil, err
		}
		ops := retwis.DrawOps(op, nCap+nLow+nHigh)
		plan := &wirePlan{seed: seedStream}
		var a, b, c int
		plan.capa, a = retwisOps(ops[:nCap], g, wireConns)
		plan.low, b = retwisOps(ops[nCap:nCap+nLow], g, wireConns)
		plan.high, c = retwisOps(ops[nCap+nLow:], g, wireConns)
		plan.posts = a + b + c
		return plan, nil
	},
}

// wireRun is what one wire run measured.
type wireRun struct {
	setup      []float64 // seconds per set-up
	capBlocks  []float64 // ops/s of each measured closed-loop block
	capOpsS    float64
	capCPUus   float64 // server CPU per op in the closed loop
	capGenBusy float64
	low, high  latencyStats
	highCPUus  float64 // server CPU per op in the high-rate phase
	memMB      float64
	gc         gcTally // server GC over the measured phases (traced runs)
	attempted  int
	failed     int
	problems   []string
}

func (ww *wireWorkload) run(o *options) (*wireRun, error) {
	s := float64(o.seconds)
	nCap := roundUp(int(ww.capRate*0.2*s), wireConns*cycles)
	nLow := roundUp(int(ww.low*0.4*s), wireConns*cycles)
	nHigh := roundUp(int(ww.high*0.4*s), wireConns*cycles)
	plan, err := ww.build(o.seed, nCap, nLow, nHigh)
	if err != nil {
		return nil, err
	}
	runtime.GC()

	out := &wireRun{}
	var ch *child
	for r := 0; r < setupRepeats; r++ {
		if ch != nil {
			ch.stop()
		}
		t0 := time.Now()
		ch, err = launchChild(o.serverBin, o.serverCPU, o.genCPU, o.trace)
		if err != nil {
			return nil, err
		}
		bad, err := seedChild(ch, plan.seed)
		if err != nil {
			ch.stop()
			return nil, fmt.Errorf("seed dego-server: %w", err)
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
		if bad > 0 {
			out.problems = append(out.problems, fmt.Sprintf("%d seed commands failed", bad))
		}
	}
	defer ch.stop()
	if st, err := procStatus(strconv.Itoa(ch.pid), "Cpus_allowed_list"); err == nil {
		fmt.Printf("# dego-server pid %d: GOMAXPROCS=1, cpus %s\n", ch.pid, st["Cpus_allowed_list"])
	}
	resetPeakRSS(strconv.Itoa(ch.pid))

	conns := make([]*net.TCPConn, wireConns)
	for i := range conns {
		if conns[i], err = ch.dial(); err != nil {
			return nil, err
		}
		defer conns[i].Close()
	}
	gc0 := ch.gcSnapshot()

	// The run is cycles of (closed loop, low rate, high rate) blocks, so
	// every metric samples the whole run and the host's slow drifts weigh
	// on all of them alike. The first closed-loop block warms up.
	perCap := nCap / wireConns / cycles
	var capCPU, capGen, capWall, highCPU time.Duration
	var low, high []*olResult
	for c := 0; c < cycles; c++ {
		runtime.GC()
		c0, err := procCPU(ch.pid)
		if err != nil {
			return nil, err
		}
		g0, t0 := selfCPU(), time.Now()
		bad, err := closedLoop(conns, plan.capa, c*perCap, (c+1)*perCap, pipelineDepth)
		el := time.Since(t0)
		out.attempted += perCap * wireConns
		out.failed += bad
		if err != nil {
			return nil, fmt.Errorf("closed loop: %w", err)
		}
		c1, err := procCPU(ch.pid)
		if err != nil {
			return nil, err
		}
		if c > 0 {
			out.capBlocks = append(out.capBlocks, float64(perCap*wireConns)/el.Seconds())
			capCPU += c1 - c0
			capGen += selfCPU() - g0
			capWall += el
		}

		r, _, err := openBlock(ch, conns, plan.low, c, ww.low, o.seed+100+int64(c))
		if err != nil {
			return nil, err
		}
		low = append(low, r)
		r, cpu, err := openBlock(ch, conns, plan.high, c, ww.high, o.seed+200+int64(c))
		if err != nil {
			return nil, err
		}
		high = append(high, r)
		highCPU += cpu
	}
	measured := perCap * wireConns * (cycles - 1)
	out.capOpsS = float64(measured) / capWall.Seconds()
	out.capCPUus = float64(capCPU.Microseconds()) / float64(measured)
	out.capGenBusy = capGen.Seconds() / capWall.Seconds()
	out.low, out.high = summarize(low), summarize(high)
	for _, st := range []latencyStats{out.low, out.high} {
		out.attempted += st.attempted
		out.failed += st.failed + st.dropped
	}
	out.highCPUus = float64(highCPU.Microseconds()) / float64(max(1, out.high.completed))
	out.gc = ch.gcSnapshot()
	out.gc.cycles -= gc0.cycles
	out.gc.cpuMs -= gc0.cpuMs

	// End-of-run checks against the server's own counters.
	expectOps := plan.seed.cmds + plan.phaseCmds()
	if plan.posts >= 0 {
		expectOps++ // the GET below is one more executed command
	}
	if msg, err := verifyServer(conns[0], plan.posts, expectOps); err != nil {
		return nil, err
	} else if msg != "" {
		out.failed++
		out.problems = append(out.problems, msg)
	}
	out.attempted++
	if out.memMB, err = peakRSSMB(strconv.Itoa(ch.pid)); err != nil {
		return nil, err
	}
	return out, nil
}

func roundUp(n, m int) int { return (n + m - 1) / m * m }

// openBlock runs block c of an open-loop rate: its share of the streams'
// ops at rate, and returns it with the server CPU it used.
func openBlock(ch *child, conns []*net.TCPConn, streams []*opStream, c int, rate float64, seed int64) (*olResult, time.Duration, error) {
	per := streams[0].ops() / cycles // ops per connection per block
	sched := loadgen.Schedule(loadgen.Poisson, rate, per*len(conns), seed)
	runtime.GC()
	c0, err := procCPU(ch.pid)
	if err != nil {
		return nil, 0, err
	}
	r := openLoop(conns, streams, c*per, sched)
	c1, err := procCPU(ch.pid)
	return r, c1 - c0, err
}

// seedChild loads the seed stream on one connection and returns how many
// seed commands were answered with an error.
func seedChild(ch *child, seed *opStream) (int, error) {
	c, err := ch.dial()
	if err != nil {
		return 0, err
	}
	defer c.Close()
	return closedLoop([]*net.TCPConn{c}, []*opStream{seed}, 0, seed.ops(), 1024)
}

// verifyServer asks the server for stat:posts (when posts >= 0) and for its
// INFO shard counters, and returns a description of any mismatch with what
// the generator sent.
func verifyServer(c *net.TCPConn, posts, expectOps int) (string, error) {
	c.SetDeadline(time.Now().Add(10 * time.Second))
	w := wire.NewWriter(c)
	r := wire.NewReader(bufio.NewReader(c))
	var problems []string
	if posts >= 0 {
		w.WriteCommandString("GET", "stat:posts")
		if err := w.Flush(); err != nil {
			return "", err
		}
		rep, err := r.ReadReply()
		if err != nil {
			return "", err
		}
		if msg := checkPosts(rep, posts); msg != "" {
			problems = append(problems, msg)
		}
	}
	w.WriteCommandString("INFO")
	if err := w.Flush(); err != nil {
		return "", err
	}
	rep, err := r.ReadReply()
	if err != nil {
		return "", err
	}
	if msg := checkInfoOps(rep.Text(), expectOps); msg != "" {
		problems = append(problems, msg)
	}
	return strings.Join(problems, "; "), nil
}

// checkPosts compares GET stat:posts with the Post ops sent.
func checkPosts(rep wire.Reply, posts int) string {
	got, err := strconv.Atoi(rep.Text())
	if rep.Kind != wire.KindBulk || err != nil || got != posts {
		return fmt.Sprintf("stat:posts is %s, want %d", rep.String(), posts)
	}
	return ""
}

// checkInfoOps compares the commands the server's shards executed, from
// INFO, with the commands sent.
func checkInfoOps(info string, want int) string {
	got := 0
	seen := false
	for _, line := range strings.Split(info, "\r\n") {
		name, rest, ok := strings.Cut(line, ":ops=")
		if !ok || !strings.HasPrefix(name, "shard") {
			continue
		}
		n, err := strconv.Atoi(strings.SplitN(rest, ",", 2)[0])
		if err != nil {
			return fmt.Sprintf("unparsable INFO line %q", line)
		}
		got += n
		seen = true
	}
	if !seen || got != want {
		return fmt.Sprintf("shards executed %d commands, sent %d", got, want)
	}
	return ""
}
