package main

import (
	"net"
	"runtime"
	"sync"
	"time"
)

// replyReader scans one connection's replies against the stream that
// connection sent, without allocating per reply.
type replyReader struct {
	c    *net.TCPConn
	s    *opStream
	buf  []byte
	have int
	op   int // next op whose replies are awaited
	cmd  int // replies of op seen so far
	bad  bool
}

func newReplyReader(c *net.TCPConn, s *opStream, first int) *replyReader {
	return &replyReader{c: c, s: s, buf: make([]byte, 256<<10), op: first}
}

// read blocks for one socket read and scans every complete reply in it.
// done is called for each op whose last reply arrived, with whether all of
// its replies were correct and the time the read returned.
func (r *replyReader) read(done func(op int, ok bool, at time.Time)) error {
	if r.have == len(r.buf) {
		r.buf = append(r.buf, make([]byte, len(r.buf))...)
	}
	n, err := r.c.Read(r.buf[r.have:])
	now := time.Now()
	if err != nil {
		return err
	}
	r.have += n
	pos := 0
	for r.op < r.s.ops() {
		m, v, err := scanReply(r.buf[pos:r.have])
		if err != nil {
			return err
		}
		if m == 0 {
			break
		}
		pos += m
		if !r.s.ok(r.op, r.cmd, v) {
			r.bad = true
		}
		r.cmd++
		if r.cmd == int(r.s.ncmd[r.op]) {
			done(r.op, !r.bad, now)
			r.op, r.cmd, r.bad = r.op+1, 0, false
		}
	}
	r.have = copy(r.buf, r.buf[pos:r.have])
	return nil
}

// closedLoop sends ops [from, to) of streams[c] on conns[c], keeping depth
// ops in flight per connection, and returns how many replies were wrong.
func closedLoop(conns []*net.TCPConn, streams []*opStream, from, to, depth int) (int, error) {
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		failed int
		first  error
	)
	for i := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bad, err := closedConn(conns[i], streams[i], from, min(to, streams[i].ops()), depth)
			mu.Lock()
			failed += bad
			if first == nil {
				first = err
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return failed, first
}

func closedConn(c *net.TCPConn, s *opStream, from, to, depth int) (int, error) {
	if from >= to {
		return 0, nil
	}
	c.SetDeadline(time.Now().Add(60 * time.Second))
	next := min(from+depth, to)
	if _, err := c.Write(s.span(from, next)); err != nil {
		return 0, err
	}
	rr := newReplyReader(c, s, from)
	completed, failed := from, 0
	done := func(_ int, ok bool, _ time.Time) {
		completed++
		if !ok {
			failed++
		}
	}
	for completed < to {
		if err := rr.read(done); err != nil {
			return failed + to - completed, err
		}
		if k := min(completed+depth, to); k > next {
			if _, err := c.Write(s.span(next, k)); err != nil {
				return failed + to - completed, err
			}
			next = k
		}
	}
	return failed, nil
}

// olResult is one open-loop block. Per arrival, sched is its intended
// start after the block's start, lat is intended start to last reply
// (latFailed when a reply was wrong or never came) and lag is intended
// start to the write that sent it (lagDropped when never sent).
type olResult struct {
	sched    []time.Duration
	lat, lag []int64
	wall     time.Duration
	genCPU   time.Duration
	cmds     int // commands written
	writes   int // write calls that carried them
}

const (
	latFailed  = -1
	lagDropped = -1
)

// tally returns the block's accounting: attempted = completed + failed +
// dropped always holds.
func (r *olResult) tally() (attempted, completed, failed, dropped int) {
	attempted = len(r.lat)
	for i := range r.lat {
		switch {
		case r.lag[i] == lagDropped:
			dropped++
		case r.lat[i] >= 0:
			completed++
		default:
			failed++
		}
	}
	return
}

// openLoop paces arrival i at sched[i] after the block's start on
// connection i % len(conns), as op from + i / len(conns) of that
// connection's stream. One locked OS thread paces with nanosleep and
// writes; one goroutine per connection reads. A write never waits for
// replies, so a slow server cannot slow the schedule: its stalls show as
// latency of the arrivals behind them.
func openLoop(conns []*net.TCPConn, streams []*opStream, from int, sched []time.Duration) *olResult {
	n := len(sched)
	nc := len(conns)
	res := &olResult{sched: sched, lat: make([]int64, n), lag: make([]int64, n)}
	for i := range res.lat {
		res.lat[i] = latFailed
		res.lag[i] = lagDropped
	}
	start := time.Now().Add(5 * time.Millisecond)
	deadline := start.Add(sched[n-1] + 15*time.Second)

	var wg sync.WaitGroup
	for c := range conns {
		conns[c].SetDeadline(deadline)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rr := newReplyReader(conns[c], streams[c], from)
			done := func(op int, ok bool, at time.Time) {
				if i := (op-from)*nc + c; ok {
					res.lat[i] = int64(at.Sub(start) - sched[i])
				}
			}
			for to := from + (n-c+nc-1)/nc; rr.op < to; {
				if rr.read(done) != nil {
					return
				}
			}
		}()
	}

	cpu0 := selfCPU()
	runtime.LockOSThread()
	setTimerSlack()
	next := make([]int, nc) // next op to write per connection
	for c := range next {
		next[c] = from
	}
	for i := 0; i < n; {
		due := start.Add(sched[i])
		now := time.Now()
		if d := due.Sub(now); d > 0 {
			sleepNs(d)
			now = time.Now()
		}
		// Send every arrival due by now: normally one, several when the
		// pacer woke late.
		j := i
		for j < n && !start.Add(sched[j]).After(now) {
			res.lag[j] = int64(now.Sub(start) - sched[j])
			j++
		}
		if j == i {
			continue
		}
		failed := false
		for c := 0; c < nc; c++ {
			end := from + (j-c+nc-1)/nc // past conn c's ops among arrivals [0, j)
			if end <= next[c] {
				continue
			}
			s := streams[c]
			if _, err := conns[c].Write(s.span(next[c], end)); err != nil {
				failed = true
				break
			}
			res.writes++
			for op := next[c]; op < end; op++ {
				res.cmds += int(s.ncmd[op])
			}
			next[c] = end
		}
		if failed {
			// Arrivals not yet written are dropped; the readers stop now
			// and count what was written but not answered as failed.
			for k := i; k < j; k++ {
				if from+k/nc >= next[k%nc] {
					res.lag[k] = lagDropped
				}
			}
			for _, c := range conns {
				c.SetDeadline(time.Now())
			}
			break
		}
		i = j
	}
	runtime.UnlockOSThread()
	wg.Wait()
	res.wall = time.Since(start)
	res.genCPU = selfCPU() - cpu0
	return res
}
