package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/adjusted-objects/dego"
	"github.com/adjusted-objects/dego/internal/retwis"
	"github.com/adjusted-objects/dego/internal/server"
	"github.com/adjusted-objects/dego/internal/stats"
	"github.com/adjusted-objects/dego/internal/wire"
)

// The traced run's layer ledger. Every layer is reached from outside,
// through its public functions, with spans recorded by this file around
// each call. It runs on one CPU with GOMAXPROCS=1, as dego-server does.

// span is one timed layer call. Spans of one request (a replayed pipeline
// batch, or one retwis op) share req; parent indexes the enclosing span.
type span struct {
	name       uint16
	parent     int32
	req        int32
	start, end int64 // ns since the tracer's epoch
}

type tracer struct {
	epoch time.Time
	spans []span
	names []string
	ids   map[string]uint16
}

func newTracer() *tracer {
	// Preallocated so that recording never grows the slice mid-pass.
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<20), ids: map[string]uint16{}}
}

func (t *tracer) id(name string) uint16 {
	if i, ok := t.ids[name]; ok {
		return i
	}
	t.ids[name] = uint16(len(t.names))
	t.names = append(t.names, name)
	return t.ids[name]
}

func (t *tracer) begin(name uint16, parent, req int32) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].end = int64(time.Since(t.epoch)) }

// selfTimes returns, per span name, the summed self time (duration minus
// the part covered by child spans) and the span count, over spans[from:].
func (t *tracer) selfTimes(from int) (map[string]int64, map[string]int) {
	child := make([]int64, len(t.spans)-from)
	for i := from; i < len(t.spans); i++ {
		if p := int(t.spans[i].parent); p >= from {
			child[p-from] += t.spans[i].end - t.spans[i].start
		}
	}
	self, n := map[string]int64{}, map[string]int{}
	for i := from; i < len(t.spans); i++ {
		s := t.spans[i]
		name := t.names[s.name]
		self[name] += s.end - s.start - child[i-from]
		n[name]++
	}
	return self, n
}

// write stores every span as CSV.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,req,parent,name,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i, s.req, s.parent, t.names[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func allocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// ledgerRow is one stream replayed against one store kind.
type ledgerRow struct {
	decodeNs, execNs, encodeNs float64 // per command / reply
	decodeAllocs, execAllocs   float64
	encodeAllocs               float64
	bytesIn, bytesOut          float64 // per op
	cmdsPerOp                  float64
}

// perOpNs is the ledger's account of server CPU per op for this stream.
func (l ledgerRow) perOpNs() float64 {
	return (l.decodeNs + l.execNs + l.encodeNs) * l.cmdsPerOp
}

type countWriter struct{ n int }

func (c *countWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

// decodeAll decodes ops [a, b) of s into commands, one slice per op.
func decodeAll(s *opStream, a, b int) ([][][][]byte, error) {
	r := wire.NewReader(bytes.NewReader(s.span(a, b)))
	out := make([][][][]byte, 0, b-a)
	for op := a; op < b; op++ {
		cmds := make([][][]byte, s.ncmd[op])
		for i := range cmds {
			c, err := r.ReadCommand()
			if err != nil {
				return nil, err
			}
			cmds[i] = c
		}
		out = append(out, cmds)
	}
	return out, nil
}

func seedStore(st *server.Store, seed *opStream) error {
	cmds, err := decodeAll(seed, 0, seed.ops())
	if err != nil {
		return err
	}
	var batch [][][]byte
	for i, c := range cmds {
		batch = append(batch, c...)
		if len(batch) >= 512 || i == len(cmds)-1 {
			for _, rep := range st.ExecBatch(batch) {
				if rep.IsError() {
					return fmt.Errorf("seed command failed: %s", rep.Text())
				}
			}
			batch = batch[:0]
		}
	}
	return nil
}

// replay runs ops [0, n) of s through an in-process store of kind, seeded
// with seed, the way a dego-server connection does: decode a pipeline batch
// of pipelineDepth ops, execute it, encode the replies. The first half is
// traced for time; the second half is replayed one layer at a time between
// MemStats readings for allocations.
func replay(tr *tracer, kind string, seed, s *opStream, n int, req *int32) (ledgerRow, *server.Store, error) {
	st, err := server.NewStore(server.StoreConfig{Shards: 1, Kind: kind})
	if err != nil {
		return ledgerRow{}, nil, err
	}
	if err := seedStore(st, seed); err != nil {
		st.Close()
		return ledgerRow{}, nil, err
	}
	runtime.GC()
	var row ledgerRow
	half := n / 2
	idBatch, idDec, idExec, idEnc := tr.id("batch."+kind), tr.id("wire.decode"), tr.id("server.exec."+kind), tr.id("wire.encode")
	from := len(tr.spans)
	rd := wire.NewReader(bytes.NewReader(s.span(0, half)))
	cw := &countWriter{}
	w := wire.NewWriter(cw)
	cmds := make([][][]byte, 0, 256)
	ncmd := 0
	for a := 0; a < half; a += pipelineDepth {
		b := min(a+pipelineDepth, half)
		*req++
		root := tr.begin(idBatch, -1, *req)
		sp := tr.begin(idDec, root, *req)
		cmds = cmds[:0]
		for op := a; op < b; op++ {
			for k := 0; k < int(s.ncmd[op]); k++ {
				c, err := rd.ReadCommand()
				if err != nil {
					st.Close()
					return row, nil, err
				}
				cmds = append(cmds, c)
			}
		}
		tr.end(sp)
		sp = tr.begin(idExec, root, *req)
		reps := st.ExecBatch(cmds)
		tr.end(sp)
		sp = tr.begin(idEnc, root, *req)
		for _, rep := range reps {
			w.WriteReply(rep)
		}
		w.Flush()
		tr.end(sp)
		tr.end(root)
		ncmd += len(cmds)
	}
	self, _ := tr.selfTimes(from)
	row.decodeNs = float64(self["wire.decode"]) / float64(ncmd)
	row.execNs = float64(self["server.exec."+kind]) / float64(ncmd)
	row.encodeNs = float64(self["wire.encode"]) / float64(ncmd)
	row.bytesIn = float64(s.off[half]) / float64(half)
	row.bytesOut = float64(cw.n) / float64(half)
	row.cmdsPerOp = float64(ncmd) / float64(half)

	// Allocations, one layer at a time, on the second half. Everything the
	// harness itself needs is allocated before the first reading.
	rd = wire.NewReader(bytes.NewReader(s.span(half, n)))
	var ends []int // command index where each batch ends
	total := 0
	for a := half; a < n; a += pipelineDepth {
		for op := a; op < min(a+pipelineDepth, n); op++ {
			total += int(s.ncmd[op])
		}
		ends = append(ends, total)
	}
	flat := make([][][]byte, 0, total)
	all := make([][]wire.Reply, 0, len(ends))
	a0 := allocs()
	for i := 0; i < total; i++ {
		c, err := rd.ReadCommand()
		if err != nil {
			st.Close()
			return row, nil, err
		}
		flat = append(flat, c)
	}
	a1 := allocs()
	lo := 0
	for _, hi := range ends {
		all = append(all, st.ExecBatch(flat[lo:hi]))
		lo = hi
	}
	a2 := allocs()
	for _, reps := range all {
		for _, rep := range reps {
			w.WriteReply(rep)
		}
		w.Flush()
	}
	a3 := allocs()
	row.decodeAllocs = float64(a1-a0) / float64(total)
	row.execAllocs = float64(a2-a1) / float64(total)
	row.encodeAllocs = float64(a3-a2) / float64(total)
	return row, st, nil
}

// perCommand replays ops [a, b) of s one command at a time through
// Store.Exec, with a span per command named by its verb.
func perCommand(tr *tracer, st *server.Store, s *opStream, a, b int, req *int32) (map[string]float64, error) {
	ops, err := decodeAll(s, a, b)
	if err != nil {
		return nil, err
	}
	ids := map[string]uint16{}
	for _, v := range ledgerVerbs {
		ids[v] = tr.id("verb." + v)
	}
	from := len(tr.spans)
	for _, op := range ops {
		*req++
		for _, c := range op {
			sp := tr.begin(ids[string(c[0])], -1, *req)
			st.Exec(c)
			tr.end(sp)
		}
	}
	self, n := tr.selfTimes(from)
	out := map[string]float64{}
	for _, v := range ledgerVerbs {
		if n["verb."+v] == 0 {
			return nil, fmt.Errorf("the replayed stream has no %s command", v)
		}
		out[v] = float64(self["verb."+v]) / float64(n["verb."+v])
	}
	return out, nil
}

// hopNs times one EXISTS on an absent key: command planning plus the
// mailbox round trip to the shard loop, with no shard work to speak of.
func hopNs(st *server.Store) float64 {
	cmd := [][]byte{[]byte("EXISTS"), []byte("absent:key")}
	const n = 100_000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		st.Exec(cmd)
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// rawMap is the part of a planned representation the facade forwards to.
type rawMap[K comparable] interface {
	Put(h *dego.Handle, k K, v *int)
	Get(k K) (*int, bool)
}

// facadeNs is AdjustedMap Put+Get minus the same pair on Representation(),
// median of alternating rounds over the same keys.
func facadeNs[K comparable](m *dego.AdjustedMap[K, *int], h *dego.Handle, keys []K) (float64, error) {
	raw, ok := m.Representation().(rawMap[K])
	if !ok {
		return 0, fmt.Errorf("representation %T has no Put/Get", m.Representation())
	}
	v := new(int)
	var viaFacade, viaRaw []float64
	for r := 0; r < 41; r++ {
		t0 := time.Now()
		for _, k := range keys {
			m.Put(h, k, v)
			m.Get(k)
		}
		viaFacade = append(viaFacade, float64(time.Since(t0).Nanoseconds())/float64(len(keys)))
		t0 = time.Now()
		for _, k := range keys {
			raw.Put(h, k, v)
			raw.Get(k)
		}
		viaRaw = append(viaRaw, float64(time.Since(t0).Nanoseconds())/float64(len(keys)))
	}
	return median(viaFacade) - median(viaRaw), nil
}

func facadeRows(r *report) error {
	reg := dego.NewRegistry(8)
	h := reg.MustRegister()
	defer h.Release()
	// The shard-map plan of dego-server's default adaptive store.
	sm, err := dego.Map[string, *int](dego.On(reg), dego.Capacity(1<<14), dego.CommutingWriters(),
		dego.Adaptive(dego.Ranges(8)), dego.Stripes(256), dego.Buckets(1<<15))
	if err != nil {
		return err
	}
	skeys := make([]string, 1<<14)
	for i := range skeys {
		skeys[i] = string(kvKey(i))
	}
	fs, err := facadeNs(sm, h, skeys)
	if err != nil {
		return err
	}
	// The map plan of retwis' DEGO backend.
	const users = 1 << 16
	rm, err := dego.Map[retwis.UserID, *int](dego.CommutingWriters(), dego.On(reg), dego.Capacity(users),
		dego.Buckets(2*users), dego.WithHash(func(u retwis.UserID) uint64 { return stats.Hash64(uint64(u)) }))
	if err != nil {
		return err
	}
	ukeys := make([]retwis.UserID, users)
	for i := range ukeys {
		ukeys[i] = retwis.UserID(i)
	}
	fr, err := facadeNs(rm, h, ukeys)
	if err != nil {
		return err
	}
	r.set("dego.facade_ns.shardmap", fs)
	r.set("dego.facade_ns.retwis", fr)
	return nil
}

// libKind names the ledger row of a retwis op.
func libKind(k retwis.OpKind) string {
	switch k {
	case retwis.OpJoinGroup, retwis.OpLeaveGroup:
		return "Group"
	}
	return k.String()
}

// libRows replays the Table-2 stream single-threaded on a DEGO backend:
// alternating untraced and traced passes give the tracing overhead, the
// traced passes give each op kind's time, and per-kind passes between
// MemStats readings give its allocations. It returns the summed per-op
// time of the traced passes.
func libRows(tr *tracer, r *report, seed int64, req *int32) (float64, error) {
	p, op := retwisParams(libUsers, seed)
	st := buildLib(p, op.Seed, nil)
	g := st.gens[0]
	tl := make([]retwis.Tweet, retwis.TimelineSize)
	ids := map[string]uint16{}
	for _, k := range retwisKinds {
		ids[k] = tr.id("retwis." + k)
	}
	idPass := tr.id("retwis.pass")
	// runtime/metrics' GC CPU advances at the end of each cycle: the first
	// reading follows a forced collection, the second counts the cycles the
	// passes completed.
	runtime.GC()
	gc0, cpu0 := readGC(), selfCPU()
	const passOps = 40_000
	var plain, traced []float64
	self, n := map[string]int64{}, map[string]int{}
	for pass := 0; pass < 4; pass++ {
		t0 := time.Now()
		for i := 0; i < passOps; i++ {
			st.exec(0, g.Next(), tl)
		}
		plain = append(plain, float64(time.Since(t0).Nanoseconds()))
		from := len(tr.spans)
		*req++
		root := tr.begin(idPass, -1, *req)
		t0 = time.Now()
		for i := 0; i < passOps; i++ {
			op := g.Next()
			*req++
			sp := tr.begin(ids[libKind(op.Kind)], root, *req)
			st.exec(0, op, tl)
			tr.end(sp)
		}
		traced = append(traced, float64(time.Since(t0).Nanoseconds()))
		tr.end(root)
		ps, pn := tr.selfTimes(from)
		for _, k := range retwisKinds {
			self[k] += ps["retwis."+k]
			n[k] += pn["retwis."+k]
		}
	}
	gc1, cpu1 := readGC(), selfCPU()
	r.set("trace.overhead_share", median(traced)/median(plain)-1)
	if _, ok := r.m["retwis.gc_cpu_share"]; !ok { // retwis-lib sets it from its own run
		r.set("retwis.gc_cpu_share", (gc1.gcCPU-gc0.gcCPU)/(cpu1-cpu0).Seconds())
	}

	var tracedNs int64
	for _, k := range retwisKinds {
		r.set("retwis."+k+".ns_per_op", float64(self[k])/float64(max(1, n[k])))
		tracedNs += self[k]
	}

	// Allocations per kind: the next ops of that kind from the stream.
	const kindOps = 5_000
	for _, k := range retwisKinds {
		ops := make([]retwis.Op, 0, kindOps)
		for len(ops) < kindOps {
			if op := g.Next(); libKind(op.Kind) == k {
				ops = append(ops, op)
			}
		}
		a0 := allocs()
		for _, op := range ops {
			st.exec(0, op, tl)
		}
		r.set("retwis."+k+".allocs_per_op", float64(allocs()-a0)/kindOps)
	}
	return float64(tracedNs) / (4 * passOps), nil
}

// ledger measures every per-layer row of the in-process replay and the
// coverage of own's stream ("kv", "retwis", or "lib" for the in-process
// workload): the ledger's per-op time over the CPU per op measured at
// capacity in this run (capCPUns).
func ledger(o *options, r *report, capCPUns float64, own string) error {
	if err := pinProcess(o.genCPU); err != nil {
		return err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	debug.FreeOSMemory()
	tr := newTracer()
	var req int32

	const kvOpsN, retwisOpsN = 40_000, 16_000
	vals := newKVValues(kvKeys, o.seed)
	kvSeedS := kvSeed(vals, kvKeys)
	kvStream := kvOps(rand.New(rand.NewSource(o.seed+7)), vals, kvKeys, kvOpsN, 1)[0]
	rows := map[string]ledgerRow{}
	for _, kind := range storeKinds {
		row, st, err := replay(tr, kind, kvSeedS, kvStream, kvOpsN, &req)
		if err != nil {
			return fmt.Errorf("replay kv on %s: %w", kind, err)
		}
		r.set("server.kind."+kind+".exec_ns_per_cmd", row.execNs)
		if kind == server.StoreAdaptive {
			rows["kv"] = row
			r.set("server.hop_ns", hopNs(st))
		}
		st.Close()
	}

	gp, op := retwisParams(retwisUsers, o.seed)
	g := retwis.BuildGraph(gp)
	rSeed, err := retwisSeed(gp, g)
	if err != nil {
		return err
	}
	rOps := retwis.DrawOps(op, 3*retwisOpsN)
	rStreams, _ := retwisOps(rOps, g, 1)
	row, st, err := replay(tr, server.StoreAdaptive, rSeed, rStreams[0], 2*retwisOpsN, &req)
	if err != nil {
		return fmt.Errorf("replay retwis: %w", err)
	}
	rows["retwis"] = row
	verbs, err := perCommand(tr, st, rStreams[0], 2*retwisOpsN, 3*retwisOpsN, &req)
	st.Close()
	if err != nil {
		return err
	}
	for v, ns := range verbs {
		r.set("server.verb."+v+"_ns", ns)
	}
	for _, s := range ledgerStreams {
		l := rows[s]
		r.set("wire.decode_ns_per_cmd."+s, l.decodeNs)
		r.set("wire.decode_allocs_per_cmd."+s, l.decodeAllocs)
		r.set("wire.encode_ns_per_reply."+s, l.encodeNs)
		r.set("wire.encode_allocs_per_reply."+s, l.encodeAllocs)
		r.set("wire.bytes_in_per_op."+s, l.bytesIn)
		r.set("wire.bytes_out_per_op."+s, l.bytesOut)
		r.set("server.exec_ns_per_cmd."+s, l.execNs)
		r.set("server.exec_allocs_per_cmd."+s, l.execAllocs)
	}

	if err := facadeRows(r); err != nil {
		return err
	}
	libNs, err := libRows(tr, r, o.seed, &req)
	if err != nil {
		return err
	}
	covered := libNs
	if own != "lib" {
		covered = rows[own].perOpNs()
	}
	r.set("ledger.coverage", covered/capCPUns)
	fmt.Printf("# ledger: %.0f ns/op covered of %.0f ns/op CPU at capacity\n", covered, capCPUns)

	path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.csv", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Printf("# %d spans written to %s\n", len(tr.spans), path)
	return nil
}
