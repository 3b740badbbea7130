// Package loadgen is an open-loop load generator: operations are scheduled
// on an arrival process (Poisson or fixed-interval) at a target rate, and
// each operation's latency is measured from its *intended* start time — the
// moment the schedule said it should begin — to its completion, not from
// when a worker finally got around to sending it.
//
// That distinction is the whole point. A closed-loop harness issues the
// next request only after the previous one returns, so a server stall
// silently paces the client down: the stalled request measures slow, but
// the requests that *would have arrived* during the stall are never issued
// and never measured. This is coordinated
// omission, and it hides exactly the queueing delay a production latency
// SLO cares about. An open-loop generator keeps the clock honest: arrivals
// are fixed in advance, a stalled connection makes subsequent arrivals
// queue, and their recorded latency grows by the wait.
//
// The dispatcher never blocks on slow workers: the backlog between the
// clock and the worker pool is a bounded queue, and an arrival that finds
// it full is counted as dropped rather than delaying the schedule. Dropped
// arrivals are load the system failed to absorb — they are reported in the
// Result, and a nonzero count marks the point as past saturation.
package loadgen

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"github.com/adjusted-objects/dego/internal/stats"
)

// Process selects the arrival process.
type Process uint8

// Arrival processes.
const (
	// Poisson draws exponential inter-arrival gaps (memoryless arrivals,
	// the standard open-system model).
	Poisson Process = iota
	// Uniform spaces arrivals exactly 1/rate apart (fixed interval).
	Uniform
)

// String returns the process label used in frontier JSON.
func (p Process) String() string {
	if p == Uniform {
		return "uniform"
	}
	return "poisson"
}

// ParseProcess parses a process label.
func ParseProcess(s string) (Process, error) {
	switch s {
	case "poisson", "":
		return Poisson, nil
	case "uniform", "fixed":
		return Uniform, nil
	}
	return 0, fmt.Errorf("loadgen: unknown arrival process %q (want poisson or uniform)", s)
}

// Config is one open-loop run.
type Config struct {
	// Rate is the target arrival rate in operations per second.
	Rate float64
	// Count is the number of scheduled arrivals; 0 derives it from
	// Rate*Duration.
	Count int
	// Duration is the schedule horizon used when Count is 0.
	Duration time.Duration
	// Process is the arrival process (default Poisson).
	Process Process
	// Seed roots the arrival schedule; the same seed yields a
	// byte-identical schedule (see Schedule).
	Seed int64
	// Workers is the executor pool size (default 1). Each worker owns one
	// Executor — one connection, in the networked case.
	Workers int
	// Batch is the most jobs one Exec call coalesces (default 1). A worker
	// drains what the backlog holds up to this depth, so batching only
	// happens when arrivals outpace the pool — latency is still recorded
	// per job from its own intended start.
	Batch int
	// QueueCap bounds the backlog between the clock and the pool (default
	// 1024). Arrivals that find it full are dropped and counted, never
	// blocking the schedule.
	QueueCap int
}

func (c *Config) fill() error {
	if !(c.Rate > 0) || math.IsInf(c.Rate, 1) {
		return errors.New("loadgen: Rate must be positive and finite")
	}
	if c.Count == 0 {
		c.Count = int(c.Rate * c.Duration.Seconds())
	}
	if c.Count <= 0 {
		return errors.New("loadgen: need Count > 0 or a positive Duration")
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Batch <= 0 {
		c.Batch = 1
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	return nil
}

// Job is one scheduled arrival. Index is its position in the schedule (and
// in any pre-drawn op sequence); Intended is the wall-clock moment the
// schedule assigned it.
type Job struct {
	Index    int
	Intended time.Time
}

// Executor runs batches of jobs. One Executor serves one worker goroutine;
// Exec returns when every job in the batch has completed (for a pipelined
// network client: last reply read), and an error fails the whole batch.
type Executor interface {
	Exec(jobs []Job) error
	Close() error
}

// Result is one open-loop run's accounting. Scheduled = Executed + Errors +
// Dropped always holds: every arrival is either completed, failed, or
// shed at the full backlog.
type Result struct {
	Scheduled uint64
	Executed  uint64 // jobs whose batch completed
	Errors    uint64 // jobs in batches whose Exec failed
	Dropped   uint64 // arrivals shed at a full backlog
	Elapsed   time.Duration
	// Latency is intended-start → completion in microseconds, the
	// coordinated-omission-free distribution. Failed and dropped jobs are
	// not in it — they are accounted above instead.
	Latency stats.LatencyHist
	// Lag is intended-start → dispatch in microseconds: how far the clock
	// goroutine itself ran behind schedule. A heavy tail here means the
	// target rate exceeds what the generator can even dispatch, so the
	// latency histogram is measuring the harness, not the system.
	Lag stats.LatencyHist
}

// Schedule returns the deterministic arrival schedule for n arrivals at
// rate per second: offsets from the run start, strictly non-decreasing.
// The same (process, rate, n, seed) yields a byte-identical schedule on
// any machine, which is what makes frontier JSONs reproducible.
func Schedule(process Process, rate float64, n int, seed int64) []time.Duration {
	offsets := make([]time.Duration, n)
	switch process {
	case Uniform:
		interval := float64(time.Second) / rate
		for i := range offsets {
			offsets[i] = time.Duration(float64(i) * interval)
		}
	default: // Poisson
		rng := rand.New(rand.NewSource(seed))
		t := 0.0
		for i := range offsets {
			t += rng.ExpFloat64() / rate * float64(time.Second)
			offsets[i] = time.Duration(t)
		}
	}
	return offsets
}

type workerTally struct {
	executed uint64
	errors   uint64
	lat      stats.LatencyHist
}

// Run executes cfg against a pool built by newWorker (called sequentially,
// once per worker, before the clock starts). It returns when the schedule
// is exhausted and the backlog has drained.
func Run(cfg Config, newWorker func(id int) (Executor, error)) (Result, error) {
	if err := cfg.fill(); err != nil {
		return Result{}, err
	}
	offsets := Schedule(cfg.Process, cfg.Rate, cfg.Count, cfg.Seed)

	workers := make([]Executor, cfg.Workers)
	for i := range workers {
		w, err := newWorker(i)
		if err != nil {
			for _, prev := range workers[:i] {
				prev.Close()
			}
			return Result{}, fmt.Errorf("loadgen: worker %d: %w", i, err)
		}
		workers[i] = w
	}

	queue := make(chan Job, cfg.QueueCap)
	tallies := make([]workerTally, cfg.Workers)
	var wg sync.WaitGroup
	wg.Add(cfg.Workers)
	for i := range workers {
		go func(id int) {
			defer wg.Done()
			ex := workers[id]
			defer ex.Close()
			tally := &tallies[id]
			batch := make([]Job, 0, cfg.Batch)
			for {
				j, ok := <-queue
				if !ok {
					return
				}
				batch = append(batch[:0], j)
			fill:
				for len(batch) < cfg.Batch {
					select {
					case j2, ok := <-queue:
						if !ok {
							break fill
						}
						batch = append(batch, j2)
					default:
						break fill
					}
				}
				if err := ex.Exec(batch); err != nil {
					tally.errors += uint64(len(batch))
					continue
				}
				for _, jb := range batch {
					tally.lat.RecordSince(jb.Intended)
				}
				tally.executed += uint64(len(batch))
			}
		}(i)
	}

	res := Result{Scheduled: uint64(cfg.Count)}
	t0 := time.Now()
	// Pacing is a plain sleep: the timer overshoots by some hundreds of
	// microseconds per wake, and that overshoot lands in every measured
	// latency. Spinning the gap away is tempting but wrong on small
	// machines — a busy dispatcher starves the very workers (and an
	// in-process server) it feeds. The honest answer is the Lag histogram:
	// it records exactly how far the clock ran behind, so a reader can
	// subtract the harness from the system.
	for i, off := range offsets {
		intended := t0.Add(off)
		if d := time.Until(intended); d > 0 {
			time.Sleep(d)
		}
		// Behind schedule (sleep overshoot or a too-high target rate): no
		// catch-up sleep, dispatch immediately and record the lag.
		res.Lag.RecordSince(intended)
		select {
		case queue <- Job{Index: i, Intended: intended}:
		default:
			res.Dropped++
		}
	}
	close(queue)
	wg.Wait()
	res.Elapsed = time.Since(t0)

	for i := range tallies {
		res.Executed += tallies[i].executed
		res.Errors += tallies[i].errors
		res.Latency.Merge(&tallies[i].lat)
	}
	return res, nil
}
