package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/loadgen"
	"github.com/adjusted-objects/dego/internal/retwis"
	"github.com/adjusted-objects/dego/internal/stats"
)

// retwis-lib: the paper's own benchmark, in process, on the DEGO backend.
// Every phase is a fixed op count: 5% AddUser grows the state without
// bound, so a duration would make the state size depend on the speed.
const (
	libUsers   = 100_000
	libThreads = 2
	libBatch   = 64 // ops per open-loop arrival
	libLow     = 150_000
	libHigh    = 250_000
	libCapOps  = 100_000 // closed-loop ops per measured second
)

// libState is one built backend with its worker handles and op streams.
type libState struct {
	b       retwis.Backend
	workers []*core.Handle
	gens    []*retwis.Generator

	// Per worker: AddUser ops executed, and the followers a Follow op made
	// follow-then-unfollow a sampled user.
	added   []int
	touched []map[retwis.UserID][]retwis.UserID
	sample  map[retwis.UserID]bool
}

// buildLib builds the backend on p's graph; the workers' op streams are
// drawn from opSeed.
func buildLib(p retwis.Params, opSeed int64, sample map[retwis.UserID]bool) *libState {
	reg := core.NewRegistry(2*p.Threads + 8)
	st := &libState{sample: sample}
	for i := 0; i < p.Threads; i++ {
		st.workers = append(st.workers, reg.MustRegister())
	}
	st.b, _ = retwis.Build(retwis.KindDEGO, p, reg)
	parts := make([][]retwis.UserID, p.Threads)
	for u := 0; u < p.Users; u++ {
		parts[u%p.Threads] = append(parts[u%p.Threads], retwis.UserID(u))
	}
	op := p
	op.Seed = opSeed
	for t := 0; t < p.Threads; t++ {
		st.gens = append(st.gens, retwis.NewGenerator(t, op, parts[t], false))
		st.touched = append(st.touched, map[retwis.UserID][]retwis.UserID{})
	}
	st.added = make([]int, p.Threads)
	return st
}

// exec runs one op on worker t, as retwis.Run does.
func (st *libState) exec(t int, op retwis.Op, tl []retwis.Tweet) {
	h, b := st.workers[t], st.b
	switch op.Kind {
	case retwis.OpAddUser:
		b.AddUser(h, op.User)
		st.added[t]++
	case retwis.OpFollow:
		b.Follow(h, op.User, op.Target)
		b.Unfollow(h, op.User, op.Target)
		if st.sample[op.Target] {
			st.touched[t][op.Target] = append(st.touched[t][op.Target], op.User)
		}
	case retwis.OpPost:
		b.Post(h, op.User, retwis.Tweet{Author: op.User, Seq: op.Seq})
	case retwis.OpTimeline:
		b.Timeline(h, op.User, tl)
	case retwis.OpJoinGroup:
		b.JoinGroup(h, op.User)
	case retwis.OpLeaveGroup:
		b.LeaveGroup(h, op.User)
	default:
		b.UpdateProfile(h, op.User, op.Seq)
	}
}

// onWorkers runs f(t) for each worker on its own locked OS thread, pinned
// to cpus[t % len(cpus)], and waits for all of them.
func onWorkers(cpus []int, f func(t int)) {
	var wg sync.WaitGroup
	for t := 0; t < libThreads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			setAffinity(syscall.Gettid(), maskOf(cpus[t%len(cpus)]))
			setTimerSlack()
			f(t)
		}()
	}
	wg.Wait()
}

// sampleUsers picks the users whose follower counts are checked: the most
// followed-at-random ones (low ids under the Zipf draw) and a seeded spread.
func sampleUsers(seed int64) map[retwis.UserID]bool {
	s := map[retwis.UserID]bool{}
	for u := 0; u < 32; u++ {
		s[retwis.UserID(u)] = true
	}
	rng := rand.New(rand.NewSource(seed ^ 0xf011))
	for len(s) < 256 {
		s[retwis.UserID(rng.Intn(libUsers))] = true
	}
	return s
}

// seededFollowers replays retwis.Build's edge draws and returns the initial
// follower set of every sampled user: an oracle independent of the backend.
func seededFollowers(p retwis.Params, sample map[retwis.UserID]bool) map[retwis.UserID]map[retwis.UserID]bool {
	out := map[retwis.UserID]map[retwis.UserID]bool{}
	for u := range sample {
		out[u] = map[retwis.UserID]bool{}
	}
	degrees := stats.PowerLawDegrees(p.Users, p.MaxDegree, 2.0, p.Seed)
	pick := stats.NewZipfian(p.Users, p.Alpha, p.Seed+1)
	for u := 0; u < p.Users; u++ {
		uid := retwis.UserID(u)
		for d := 0; d < degrees[u]; d++ {
			f := retwis.UserID(pick.Next())
			if f != uid && sample[uid] {
				out[uid][f] = true
			}
		}
	}
	return out
}

// followerProblems compares each sampled user's follower count with the
// seeded set minus the followers a Follow-then-Unfollow pair removed.
func followerProblems(counts map[retwis.UserID]int, seeded map[retwis.UserID]map[retwis.UserID]bool,
	touched []map[retwis.UserID][]retwis.UserID) []string {
	var out []string
	for u, fs := range seeded {
		want := len(fs)
		gone := map[retwis.UserID]bool{}
		for _, m := range touched {
			for _, f := range m[u] {
				if fs[f] && !gone[f] {
					gone[f] = true
					want--
				}
			}
		}
		if counts[u] != want {
			out = append(out, fmt.Sprintf("user %d has %d followers, want %d", u, counts[u], want))
		}
	}
	return out
}

func usersProblem(got, seeded, added int) string {
	if got != seeded+added {
		return fmt.Sprintf("Users() is %d, want %d seeded + %d added", got, seeded, added)
	}
	return ""
}

// gcReading is the process's GC counters from runtime/metrics.
type gcReading struct{ cycles, gcCPU float64 }

// gcAcc sums the GC work of the measured blocks, leaving out the forced
// collections between them. The GC CPU counter advances when a cycle ends,
// so a block is charged the cycles that end inside it.
type gcAcc struct {
	cycles, gcCPU float64
	cpu           time.Duration // process CPU over the same blocks
}

// since adds the GC work done since the reading g0, taken with the process
// CPU time cpu0.
func (a *gcAcc) since(g0 gcReading, cpu0 time.Duration) {
	g1 := readGC()
	a.cycles += g1.cycles - g0.cycles
	a.gcCPU += g1.gcCPU - g0.gcCPU
	a.cpu += selfCPU() - cpu0
}

func readGC() gcReading {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		if v.Kind() == metrics.KindUint64 {
			return float64(v.Uint64())
		}
		if v.Kind() == metrics.KindFloat64 {
			return v.Float64()
		}
		return 0
	}
	return gcReading{val(s[0].Value), val(s[1].Value)}
}

// libBlock runs one open-loop block: each worker executes arrivals of
// libBatch ops on its own Poisson schedule at rate/libThreads ops/s for
// secs, sleeping with nanosleep until each is due. It returns the block and
// the process CPU it used, and adds its GC work to gc. The workers are the
// generator too, so the block's busy share is their time executing over
// their time available.
func libBlock(st *libState, cpus []int, rate, secs float64, seed int64, gc *gcAcc) (*olResult, time.Duration) {
	perThread := int(rate*secs) / libBatch / libThreads
	scheds := make([][]time.Duration, libThreads)
	lat := make([][]int64, libThreads)
	lag := make([][]int64, libThreads)
	busy := make([]time.Duration, libThreads)
	for t := range scheds {
		scheds[t] = loadgen.Schedule(loadgen.Poisson, rate/libBatch/libThreads, perThread, seed*libThreads+int64(t))
	}
	g0, c0 := readGC(), selfCPU()
	start := time.Now().Add(5 * time.Millisecond)
	onWorkers(cpus, func(t int) {
		tl := make([]retwis.Tweet, retwis.TimelineSize)
		g := st.gens[t]
		sched := scheds[t]
		lat[t], lag[t] = make([]int64, len(sched)), make([]int64, len(sched))
		for i, off := range sched {
			if d := off - time.Since(start); d > 0 {
				sleepNs(d)
			}
			began := time.Since(start)
			for k := 0; k < libBatch; k++ {
				st.exec(t, g.Next(), tl)
			}
			end := time.Since(start)
			lag[t][i], lat[t][i] = int64(began-off), int64(end-off)
			busy[t] += end - began
		}
	})
	res := &olResult{wall: time.Since(start)}
	cpu := selfCPU() - c0
	gc.since(g0, c0)
	for t := range scheds {
		res.sched = append(res.sched, scheds[t]...)
		res.lat = append(res.lat, lat[t]...)
		res.lag = append(res.lag, lag[t]...)
		res.genCPU += busy[t] / libThreads
	}
	res.writes = len(res.sched)
	res.cmds = res.writes * libBatch
	return res, cpu
}

func runLib(o *options, r *report) error {
	runtime.GOMAXPROCS(libThreads)
	cpus, err := allowedCPUs()
	if err != nil {
		return err
	}
	fmt.Printf("# retwis-lib pid %d: GOMAXPROCS=%d, %d workers on cpus %v\n", syscall.Getpid(), libThreads, libThreads, cpus)
	p, _ := retwisParams(libUsers, o.seed)
	p.Threads = libThreads
	sample := sampleUsers(o.seed)
	seeded := seededFollowers(p, sample)

	var setup []float64
	var st *libState
	for i := 0; i < setupRepeats; i++ {
		st = nil
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		st = buildLib(p, o.seed, sample)
		setup = append(setup, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setup))
	runtime.GC()
	resetPeakRSS("self")
	counts := func() map[retwis.UserID]int {
		c := map[retwis.UserID]int{}
		for u := range sample {
			c[u] = st.b.Followers(u)
		}
		return c
	}
	r.problems = append(r.problems, followerProblems(counts(), seeded, nil)...)

	// Cycles of (closed loop, low rate, high rate) blocks, as on the wire
	// workloads; the first closed-loop block warms up.
	s := float64(o.seconds)
	perCap := int(libCapOps*s) / cycles / libThreads
	var capRates []float64
	var capCPU, capWall, highCPU time.Duration
	var low, high []*olResult
	var gc gcAcc
	runtime.GC()
	for c := 0; c < cycles; c++ {
		g0, c0, t0 := readGC(), selfCPU(), time.Now()
		onWorkers(cpus, func(t int) {
			tl := make([]retwis.Tweet, retwis.TimelineSize)
			g := st.gens[t]
			for i := 0; i < perCap; i++ {
				st.exec(t, g.Next(), tl)
			}
		})
		el := time.Since(t0)
		gc.since(g0, c0)
		r.attempted += perCap * libThreads
		if c > 0 {
			capRates = append(capRates, float64(perCap*libThreads)/el.Seconds())
			capCPU += selfCPU() - c0
			capWall += el
		}
		// No collection is owed when the open-loop blocks start; the
		// Table-2 mix makes too little garbage to owe one by the next.
		runtime.GC()
		b, _ := libBlock(st, cpus, libLow, 0.4*s/cycles, o.seed+100+int64(c), &gc)
		low = append(low, b)
		b, cpu := libBlock(st, cpus, libHigh, 0.4*s/cycles, o.seed+200+int64(c), &gc)
		high = append(high, b)
		highCPU += cpu
	}
	measured := perCap * libThreads * (cycles - 1)
	capOpsS := float64(measured) / capWall.Seconds()
	capCPUns := float64(capCPU.Nanoseconds()) / float64(measured)
	r.set("capacity_ops_s", capOpsS)
	// The workers are the generator here: their share of the wall time on
	// CPU shows whether another tenant of the host took it from them.
	r.set("gen.busy_share.capacity", capCPU.Seconds()/(capWall.Seconds()*libThreads))
	lowSt, highSt := summarize(low), summarize(high)
	r.attempted += (lowSt.attempted + highSt.attempted) * libBatch
	fillLatency(r, "low", lowSt)
	fillLatency(r, "high", highSt)
	r.set("cpu_us_per_op", float64(highCPU.Microseconds())/float64(highSt.attempted*libBatch))
	r.set("server.cmds_per_batch.high", highSt.cmdsPerWrite)
	r.set("server.gc_cycles", gc.cycles)
	r.set("server.gc_cpu_ms", gc.gcCPU*1e3)
	r.set("retwis.gc_cpu_share", gc.gcCPU/gc.cpu.Seconds())
	fmt.Printf("# capacity %.0f ops/s (blocks %.0f; %.0f ns CPU/op)\n", capOpsS, capRates, capCPUns)

	added := 0
	for _, a := range st.added {
		added += a
	}
	if msg := usersProblem(st.b.Users(), libUsers, added); msg != "" {
		r.problems = append(r.problems, msg)
	}
	r.problems = append(r.problems, followerProblems(counts(), seeded, st.touched)...)
	r.attempted += 2
	if len(r.problems) > 0 {
		r.failed += len(r.problems)
	}
	mem, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	r.set("mem_mb", mem)
	if o.trace {
		st = nil
		return ledger(o, r, capCPUns, "lib")
	}
	return nil
}
