package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net"
	"os"
	"slices"
	"testing"
	"time"

	"github.com/adjusted-objects/dego/internal/loadgen"
	"github.com/adjusted-objects/dego/internal/retwis"
	"github.com/adjusted-objects/dego/internal/server"
	"github.com/adjusted-objects/dego/internal/wire"
)

func TestStreamsAreDeterministicPerSeed(t *testing.T) {
	for _, ww := range []*wireWorkload{kvWire, retwisWire} {
		a, err := ww.build(7, 200, 100, 100)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ww.build(7, 200, 100, 100)
		if err != nil {
			t.Fatal(err)
		}
		c, err := ww.build(8, 200, 100, 100)
		if err != nil {
			t.Fatal(err)
		}
		same, differs := true, false
		for i := range a.capa {
			for _, pair := range [][2][]*opStream{{a.capa, b.capa}, {a.low, b.low}, {a.high, b.high}} {
				same = same && bytes.Equal(pair[0][i].buf, pair[1][i].buf)
			}
			differs = differs || !bytes.Equal(a.capa[i].buf, c.capa[i].buf)
		}
		if !same || !bytes.Equal(a.seed.buf, b.seed.buf) || a.posts != b.posts {
			t.Errorf("%s: the same seed gave different request streams", ww.name)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", ww.name)
		}
	}
	s1 := loadgen.Schedule(loadgen.Poisson, 1000, 500, 3)
	s2 := loadgen.Schedule(loadgen.Poisson, 1000, 500, 3)
	if !slices.Equal(s1, s2) {
		t.Error("the same seed gave different arrival schedules")
	}
}

func TestRetwisStreamSplitsOpsIntoTheirCommands(t *testing.T) {
	p, op := retwisParams(500, 1)
	g := retwis.BuildGraph(p)
	ops := retwis.DrawOps(op, 300)
	streams, posts := retwisOps(ops, g, 2)
	wantPosts := 0
	for _, op := range ops {
		if op.Kind == retwis.OpPost {
			wantPosts++
		}
	}
	if posts != wantPosts {
		t.Errorf("posts = %d, want %d", posts, wantPosts)
	}
	for _, s := range streams {
		for op := 0; op < s.ops(); op++ {
			r := wire.NewReader(bytes.NewReader(s.span(op, op+1)))
			for k := 0; k < int(s.ncmd[op]); k++ {
				if _, err := r.ReadCommand(); err != nil {
					t.Fatalf("op %d command %d: %v", op, k, err)
				}
			}
			if _, err := r.ReadCommand(); err == nil {
				t.Fatalf("op %d spans more than its %d commands", op, s.ncmd[op])
			}
		}
	}
	seed, err := retwisSeed(p, g)
	if err != nil {
		t.Fatal(err)
	}
	if seed.ops() != seed.cmds || seed.off[seed.ops()] != len(seed.buf) {
		t.Errorf("seed stream: %d ops, %d commands, %d of %d bytes", seed.ops(), seed.cmds, seed.off[seed.ops()], len(seed.buf))
	}
}

func TestQuantilesAreExact(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0.0001, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := beyond(s, 990); got != 10 {
		t.Errorf("beyond(990) = %d, want 10", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := midmean([]float64{100, 1, 2, 3, 4, 5, 6, -50}); got != 3.5 {
		t.Errorf("midmean = %v, want 3.5", got)
	}
}

func TestSummarizeDropsOutlyingWindows(t *testing.T) {
	// Four blocks of two windows; one block is slow throughout, as when
	// another tenant of the host takes the CPU for a second.
	var blocks []*olResult
	for b := 0; b < 4; b++ {
		r := &olResult{}
		for i := 0; i < 200; i++ {
			r.sched = append(r.sched, time.Duration(i)*time.Millisecond)
			l := int64(1000 + i) // 1 µs and a little
			if b == 1 {
				l = 1e9 + int64(i)
			}
			r.lat, r.lag = append(r.lat, l), append(r.lag, 0)
		}
		blocks = append(blocks, r)
	}
	st := summarize(blocks)
	if len(st.windowP50) != 4*windowsPerBlock {
		t.Fatalf("%d windows, want %d", len(st.windowP50), 4*windowsPerBlock)
	}
	if st.p50 > 1.2 || st.p90 > 1.2 {
		t.Errorf("p50/p90 = %v/%v µs: the slow block moved the middle windows", st.p50, st.p90)
	}
	if st.samples != 800 || st.n99 != 8 || st.p99 < 1e6 {
		t.Errorf("tail over all samples: %d samples, p99 %v µs with %d beyond", st.samples, st.p99, st.n99)
	}
}

func TestAccountingIdentity(t *testing.T) {
	res := &olResult{
		lat: []int64{5, latFailed, 7, latFailed, latFailed},
		lag: []int64{1, 2, 0, lagDropped, lagDropped},
	}
	att, done, failed, dropped := res.tally()
	if att != 5 || done != 2 || failed != 1 || dropped != 2 {
		t.Errorf("tally = %d attempted, %d completed, %d failed, %d dropped", att, done, failed, dropped)
	}

	// Against a live in-process server every arrival completes.
	addr, stop := startServer(t)
	defer stop()
	vals := newKVValues(100, 1)
	seedConn := dialT(t, addr)
	if bad, err := closedLoop([]*net.TCPConn{seedConn}, []*opStream{kvSeed(vals, 100)}, 0, 100, 16); bad != 0 || err != nil {
		t.Fatalf("seed: %d bad, %v", bad, err)
	}
	streams := kvOps(rand.New(rand.NewSource(1)), vals, 100, 400, wireConns)
	conns := []*net.TCPConn{dialT(t, addr), dialT(t, addr)}
	// Two blocks of 200 arrivals, the second starting at op 100 of each
	// connection's stream.
	for b := 0; b < 2; b++ {
		sched := loadgen.Schedule(loadgen.Poisson, 20_000, 200, int64(b))
		r := openLoop(conns, streams, b*100, sched)
		att, done, failed, dropped = r.tally()
		if att != done+failed+dropped || att != 200 || done != 200 {
			t.Errorf("block %d: %d attempted, %d completed, %d failed, %d dropped", b, att, done, failed, dropped)
		}
	}
}

func startServer(t *testing.T) (string, func()) {
	t.Helper()
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", Store: server.StoreConfig{Shards: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve()
	}()
	return srv.Addr().String(), func() {
		srv.Close()
		<-done
	}
}

func dialT(t *testing.T, addr string) *net.TCPConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c.(*net.TCPConn)
}

// fakeServer answers every command with reply(args).
func fakeServer(t *testing.T, reply func(args [][]byte) wire.Reply) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				r := wire.NewReader(c)
				w := wire.NewWriter(c)
				for {
					args, err := r.ReadCommand()
					if err != nil {
						return
					}
					w.WriteReply(reply(args))
					if r.Buffered() == 0 && w.Flush() != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

func TestWrongRepliesAreCaught(t *testing.T) {
	vals := newKVValues(50, 1)
	streams := kvOps(rand.New(rand.NewSource(2)), vals, 50, 200, 1)
	// A server that returns a wrong value for one key.
	addr := fakeServer(t, func(args [][]byte) wire.Reply {
		if string(args[0]) == "SET" {
			return wire.OK()
		}
		if string(args[1]) == "key:7" {
			return wire.BulkString("0123456789abcdef0123456789abcdef")
		}
		var k int
		for _, c := range args[1][len("key:"):] {
			k = k*10 + int(c-'0')
		}
		return wire.Bulk(vals.of(k))
	})
	wrong := 0
	for _, k := range streams[0].getKey {
		if k == 7 {
			wrong++
		}
	}
	bad, err := closedLoop([]*net.TCPConn{dialT(t, addr)}, streams, 0, 200, 16)
	if err != nil || bad != wrong || wrong == 0 {
		t.Errorf("closed loop counted %d wrong replies (%v), want %d", bad, err, wrong)
	}

	// Error replies fail retwis ops too.
	p, op := retwisParams(200, 1)
	rs, _ := retwisOps(retwis.DrawOps(op, 50), retwis.BuildGraph(p), 1)
	addr = fakeServer(t, func([][]byte) wire.Reply { return wire.Err("ERR injected") })
	bad, err = closedLoop([]*net.TCPConn{dialT(t, addr)}, rs, 0, 50, 16)
	if err != nil || bad != 50 {
		t.Errorf("retwis ops with error replies: %d failed (%v), want 50", bad, err)
	}

	s := streams[0]
	for op, k := range s.getKey {
		good := replyView{kind: '+', bulk: []byte("OK")}
		if k >= 0 {
			good = replyView{kind: '$', bulk: vals.of(int(k))}
		}
		if !s.ok(op, 0, good) {
			t.Fatalf("op %d: correct reply rejected", op)
		}
		if s.ok(op, 0, replyView{kind: '-', bulk: []byte("ERR x")}) {
			t.Fatalf("op %d: error reply accepted", op)
		}
		if k >= 0 && s.ok(op, 0, replyView{kind: '$', bulk: vals.of(int(k+1) % 50)}) {
			t.Fatalf("op %d: another key's value accepted", op)
		}
	}
}

func TestServerCountChecks(t *testing.T) {
	if msg := checkPosts(wire.BulkString("12"), 12); msg != "" {
		t.Errorf("matching stat:posts flagged: %s", msg)
	}
	for _, rep := range []wire.Reply{wire.BulkString("11"), wire.Null(), wire.Err("ERR")} {
		if checkPosts(rep, 12) == "" {
			t.Errorf("stat:posts reply %v for 12 posts not flagged", rep)
		}
	}
	info := "# Shards\r\nshard0:ops=40,keys=3\r\nshard1:ops=2,keys=1\r\n"
	if msg := checkInfoOps(info, 42); msg != "" {
		t.Errorf("matching INFO flagged: %s", msg)
	}
	if checkInfoOps(info, 43) == "" || checkInfoOps("# Keyspace\r\nkeys:3\r\n", 0) == "" {
		t.Error("wrong or missing shard op counts not flagged")
	}

	// Against a live server: the commands sent are the commands executed.
	addr, stop := startServer(t)
	defer stop()
	c := dialT(t, addr)
	vals := newKVValues(30, 1)
	seed := kvSeed(vals, 30)
	if _, err := closedLoop([]*net.TCPConn{c}, []*opStream{seed}, 0, 30, 8); err != nil {
		t.Fatal(err)
	}
	if msg, err := verifyServer(c, -1, 30); err != nil || msg != "" {
		t.Errorf("verifyServer after 30 commands: %q, %v", msg, err)
	}
	if msg, err := verifyServer(c, -1, 31); err != nil || msg == "" {
		t.Errorf("verifyServer did not flag a missing command (%v)", err)
	}
}

func TestLibChecks(t *testing.T) {
	if usersProblem(105, 100, 5) != "" || usersProblem(104, 100, 5) == "" {
		t.Error("Users() check wrong")
	}
	seeded := map[retwis.UserID]map[retwis.UserID]bool{1: {2: true, 3: true, 4: true}}
	touched := []map[retwis.UserID][]retwis.UserID{{1: {2, 2, 9}}, {1: {3}}}
	// Follow(2,1)+Unfollow and Follow(3,1)+Unfollow removed two seeded
	// edges; 9 was never a follower.
	if p := followerProblems(map[retwis.UserID]int{1: 1}, seeded, touched); len(p) != 0 {
		t.Errorf("correct follower count flagged: %v", p)
	}
	if p := followerProblems(map[retwis.UserID]int{1: 3}, seeded, touched); len(p) != 1 {
		t.Error("wrong follower count not flagged")
	}

	// The oracle agrees with the backend retwis.Build seeds.
	p := retwis.DefaultParams()
	p.Users, p.Threads, p.Seed = 2_000, 2, 5
	sample := map[retwis.UserID]bool{0: true, 1: true, 17: true, 999: true}
	st := buildLib(p, 9, sample)
	counts := map[retwis.UserID]int{}
	for u := range sample {
		counts[u] = st.b.Followers(u)
	}
	if probs := followerProblems(counts, seededFollowers(p, sample), nil); len(probs) != 0 {
		t.Errorf("seeded follower oracle disagrees with Build: %v", probs)
	}
	tl := make([]retwis.Tweet, retwis.TimelineSize)
	for i := 0; i < 20_000; i++ {
		st.exec(i%2, st.gens[i%2].Next(), tl)
	}
	for u := range sample {
		counts[u] = st.b.Followers(u)
	}
	if probs := followerProblems(counts, seededFollowers(p, sample), st.touched); len(probs) != 0 {
		t.Errorf("follower counts after the op stream: %v", probs)
	}
	if msg := usersProblem(st.b.Users(), p.Users, st.added[0]+st.added[1]); msg != "" {
		t.Error(msg)
	}
}

func TestGeneratorBoundIsFlagged(t *testing.T) {
	if why := generatorBound(latencyStats{p50: 60, lagP50: 8, busy: 0.2}); why != "" {
		t.Errorf("steady phase flagged: %s", why)
	}
	if generatorBound(latencyStats{p50: 60, lagP50: 20, busy: 0.2}) == "" {
		t.Error("lag above a quarter of p50 not flagged")
	}
	if generatorBound(latencyStats{p50: 60, lagP50: 8, busy: 0.7}) == "" {
		t.Error("busy generator not flagged")
	}
}

func TestScanReply(t *testing.T) {
	full := []byte("+OK\r\n$3\r\nabc\r\n:12\r\n*2\r\n$1\r\nx\r\n-ERR y\r\n$-1\r\n")
	var kinds []byte
	for b := full; len(b) > 0; {
		n, v, err := scanReply(b)
		if err != nil || n == 0 {
			t.Fatalf("scan %q: %d, %v", b, n, err)
		}
		kinds = append(kinds, v.kind)
		b = b[n:]
	}
	if string(kinds) != "+$:-$" {
		t.Errorf("kinds = %q, want +$:-$ (an array holding an error is an error)", kinds)
	}
	arr := []byte("*2\r\n$1\r\nx\r\n-ERR y\r\n")
	for i := 0; i < len(arr); i++ {
		if n, _, err := scanReply(arr[:i]); n != 0 || err != nil {
			t.Fatalf("prefix of %d bytes: %d, %v; want 0, nil", i, n, err)
		}
	}
	if n, _, _ := scanReply(arr); n != len(arr) {
		t.Errorf("whole array: %d bytes, want %d", n, len(arr))
	}
	if _, _, err := scanReply([]byte("?x\r\n")); err == nil {
		t.Error("unknown reply type accepted")
	}
}

func TestParseGCTrace(t *testing.T) {
	n, ms, ok := parseGCTrace("gc 7 @0.41s 1%: 0.011+1.2+0.003 ms clock, 0.02+0.3/0.9/0+0.01 ms cpu, 4->4->1 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 1 P")
	if !ok || n != 1 || ms < 1.2299 || ms > 1.2301 {
		t.Errorf("parseGCTrace = %d, %v, %v", n, ms, ok)
	}
	if _, _, ok := parseGCTrace("dego-server: listening on 127.0.0.1:1"); ok {
		t.Error("non-gctrace line parsed")
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", what, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEnd)
	check("per_layer", cfg.PerLayer, perLayer)
}
