package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"

	"github.com/adjusted-objects/dego/internal/retwis"
	"github.com/adjusted-objects/dego/internal/wire"
)

// opStream is one connection's pre-encoded request stream: ops back to back,
// each one or more RESP commands. Encoding happens during set-up, so the
// measured phases only copy bytes to the socket.
type opStream struct {
	buf  []byte
	off  []int    // op i spans buf[off[i]:off[i+1]]
	ncmd []uint16 // commands (hence replies) per op
	cmds int

	// getKey, for kv streams, is the key index a GET op reads, or -1 for a
	// SET; nil for retwis streams, whose replies are checked for errors only.
	getKey []int32
	values *kvValues
}

func (s *opStream) ops() int { return len(s.ncmd) }

// span returns the encoded bytes of ops [a, b).
func (s *opStream) span(a, b int) []byte { return s.buf[s.off[a]:s.off[b]] }

var okBytes = []byte("OK")

// ok reports whether v is the correct reply to command cmd of op.
func (s *opStream) ok(op, cmd int, v replyView) bool {
	if v.kind == '-' {
		return false
	}
	if s.getKey == nil {
		return true
	}
	if k := s.getKey[op]; k >= 0 {
		return v.kind == '$' && bytes.Equal(v.bulk, s.values.of(int(k)))
	}
	return v.kind == '+' && bytes.Equal(v.bulk, okBytes)
}

// encoder appends commands to a stream with the repo's own RESP writer, so
// the bytes on the wire are exactly what a dego client sends.
type encoder struct {
	s   *opStream
	out bytes.Buffer
	w   *wire.Writer
}

func newEncoder() *encoder {
	e := &encoder{s: &opStream{off: []int{0}}}
	e.w = wire.NewWriter(&e.out)
	return e
}

func (e *encoder) command(args ...[]byte) {
	if err := e.w.WriteCommand(args...); err != nil {
		panic(err) // writes to a bytes.Buffer cannot fail
	}
	e.s.cmds++
}

// endOp closes the op begun after the previous endOp.
func (e *encoder) endOp(ncmd int) {
	e.w.Flush()
	e.s.off = append(e.s.off, e.out.Len())
	e.s.ncmd = append(e.s.ncmd, uint16(ncmd))
}

func (e *encoder) done() *opStream {
	e.w.Flush()
	e.s.buf = e.out.Bytes()
	return e.s
}

// ---------------------------------------------------------------------------
// kv-wire

// kvValues holds the 32-byte seeded value of every key.
type kvValues struct{ b []byte }

const kvValueLen = 32

func newKVValues(keys int, seed int64) *kvValues {
	v := &kvValues{b: make([]byte, keys*kvValueLen)}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	const hex = "0123456789abcdef"
	for i := range v.b {
		v.b[i] = hex[rng.Intn(16)]
	}
	return v
}

func (v *kvValues) of(k int) []byte { return v.b[k*kvValueLen : (k+1)*kvValueLen] }

func kvKey(k int) []byte { return strconv.AppendInt([]byte("key:"), int64(k), 10) }

var (
	verbGET = []byte("GET")
	verbSET = []byte("SET")
)

// kvSeed is one SET per key, in key order.
func kvSeed(vals *kvValues, keys int) *opStream {
	e := newEncoder()
	for k := 0; k < keys; k++ {
		e.command(verbSET, kvKey(k), vals.of(k))
		e.endOp(1)
	}
	return e.done()
}

// kvOps draws n ops (90% GET, 10% SET, keys uniform) from rng and deals them
// round-robin to conns streams. A SET writes the key's seeded value, so
// whatever order the two connections' commands interleave in, a GET's
// correct reply is known in advance.
func kvOps(rng *rand.Rand, vals *kvValues, keys, n, conns int) []*opStream {
	encs := make([]*encoder, conns)
	for i := range encs {
		encs[i] = newEncoder()
		encs[i].s.values = vals
	}
	for i := 0; i < n; i++ {
		e := encs[i%conns]
		k := rng.Intn(keys)
		if rng.Intn(10) == 0 {
			e.command(verbSET, kvKey(k), vals.of(k))
			e.s.getKey = append(e.s.getKey, -1)
		} else {
			e.command(verbGET, kvKey(k))
			e.s.getKey = append(e.s.getKey, int32(k))
		}
		e.endOp(1)
	}
	out := make([]*opStream, conns)
	for i, e := range encs {
		out[i] = e.done()
	}
	return out
}

// ---------------------------------------------------------------------------
// retwis-wire

// captureKV is a retwis.KV that records commands instead of sending them, so
// retwis.SeedKV and retwis.NetClient.AppendOp produce the request stream and
// the key scheme stays defined in internal/retwis alone.
type captureKV struct {
	enc     *encoder
	pending int
}

func (c *captureKV) ExecPipe(cmds [][][]byte) ([]wire.Reply, error) {
	for _, cm := range cmds {
		c.enc.command(cm...)
	}
	c.pending += len(cmds)
	return make([]wire.Reply, len(cmds)), nil
}

func (c *captureKV) Close() error { return nil }

// retwisSeed captures retwis.SeedKV's commands, one op per command.
func retwisSeed(p retwis.Params, g *retwis.Graph) (*opStream, error) {
	c := &captureKV{enc: newEncoder()}
	if err := retwis.SeedKV(c, p, g); err != nil {
		return nil, err
	}
	// SeedKV flushes in chunks; split the capture back into commands.
	s := c.enc.done()
	s.off = s.off[:1]
	counter := &countingReader{r: bytes.NewReader(s.buf)}
	r := wire.NewReader(counter)
	for i := 0; i < c.pending; i++ {
		if _, err := r.ReadCommand(); err != nil {
			return nil, fmt.Errorf("re-read seed stream: %w", err)
		}
		s.off = append(s.off, counter.n-r.Buffered())
		s.ncmd = append(s.ncmd, 1)
	}
	return s, nil
}

type countingReader struct {
	r *bytes.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// retwisOps expands ops into commands with retwis.NetClient.AppendOp and
// deals them round-robin to conns streams. It returns the streams and the
// number of Post ops among ops.
func retwisOps(ops []retwis.Op, g *retwis.Graph, conns int) ([]*opStream, int) {
	caps := make([]*captureKV, conns)
	cls := make([]*retwis.NetClient, conns)
	for i := range caps {
		caps[i] = &captureKV{enc: newEncoder()}
		cls[i] = retwis.NewNetClient(caps[i], g)
	}
	posts := 0
	for i, op := range ops {
		c, cl := caps[i%conns], cls[i%conns]
		if op.Kind == retwis.OpPost {
			posts++
		}
		cl.AppendOp(op)
		before := c.pending
		if err := cl.Flush(); err != nil {
			panic(err) // captureKV never fails
		}
		c.enc.endOp(c.pending - before)
	}
	out := make([]*opStream, conns)
	for i, c := range caps {
		out[i] = c.enc.done()
	}
	return out, posts
}
