package retwis

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/stats"
)

// Kind selects a backend implementation.
type Kind int

// Backend kinds.
const (
	KindJUC Kind = iota + 1
	KindDEGO
	KindDAP
	KindADAPTIVE
	KindFLAT
)

// String returns the backend label.
func (k Kind) String() string {
	return [...]string{"", "JUC", "DEGO", "DAP", "ADAPTIVE", "FLAT"}[k]
}

// label returns the short column label the figures print.
func (k Kind) label() string {
	if k == KindADAPTIVE {
		return "ADPT"
	}
	return k.String()
}

// kinds lists every backend, in the order the figures print them; the
// first is the JUC baseline Figure 9 divides by.
var kinds = []Kind{KindJUC, KindDEGO, KindADAPTIVE, KindDAP, KindFLAT}

// Params configures one benchmark run (§6.3).
type Params struct {
	// Users is the initial social-graph size (paper: 100K-1000K).
	Users int
	// Threads is the number of worker threads.
	Threads int
	// Alpha tunes the user-selection power law: near 0 is uniform, 1 is the
	// paper's default bias.
	Alpha float64
	// Duration of the measured phase; OpsPerThread switches to op-count
	// mode when positive.
	Duration     time.Duration
	OpsPerThread int
	// Mix is the operation mix (Table 2).
	Mix Mix
	// MaxDegree caps the power-law follower distribution.
	MaxDegree int
	// Seed makes runs reproducible.
	Seed int64
}

// DefaultParams returns a laptop-scale configuration.
func DefaultParams() Params {
	return Params{
		Users:     100_000,
		Threads:   8,
		Alpha:     1,
		Duration:  300 * time.Millisecond,
		Mix:       DefaultMix(),
		MaxDegree: 256,
		Seed:      42,
	}
}

// Result is one measured point.
type Result struct {
	Backend string
	Users   int
	Threads int
	Ops     int64
	Elapsed time.Duration
}

// OpsPerSec returns the total throughput.
func (r Result) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// validate checks the parameters every run needs: a Table-2 mix summing to
// 100% and at least one user per thread.
func (p Params) validate() error {
	if err := p.Mix.Validate(); err != nil {
		return err
	}
	if p.Users < p.Threads {
		return fmt.Errorf("retwis: need at least one user per thread (%d < %d)", p.Users, p.Threads)
	}
	return nil
}

// owner returns the thread owning user u on the (degenerate) consistent-hash
// ring.
func owner(u UserID, threads int) int { return int(int64(u) % int64(threads)) }

// register hands out n handles of reg.
func register(reg *core.Registry, n int) []*core.Handle {
	hs := make([]*core.Handle, n)
	for i := range hs {
		hs[i] = reg.MustRegister()
	}
	return hs
}

// partition returns each thread's share of the initial users.
func partition(p Params) [][]UserID {
	parts := make([][]UserID, p.Threads)
	for u := 0; u < p.Users; u++ {
		t := owner(UserID(u), p.Threads)
		parts[t] = append(parts[t], UserID(u))
	}
	return parts
}

// Build constructs the backend and seeds the social graph, using one
// priming handle per partition (ids T..2T-1 when the T workers registered
// first). It returns the backend and the priming handles.
func Build(kind Kind, p Params, reg *core.Registry) (Backend, []*core.Handle) {
	var b Backend
	switch kind {
	case KindJUC, KindDEGO, KindFLAT:
		b = newPushBackend(kind, reg, p.Users, false)
	case KindDAP:
		b = NewDAP(p.Threads)
	case KindADAPTIVE:
		b = NewAdaptive(reg, p.Users)
	default:
		panic(fmt.Sprintf("retwis: unknown backend kind %d", int(kind)))
	}
	primers := register(reg, p.Threads)
	seed(b, p, primers, kind == KindDAP)
	return b, primers
}

// seed registers users 0..p.Users-1 and draws the follower graph following
// the method of §6.3: a directed graph whose in-degree distribution abides
// by a power law (the clustering-boost step of Schweimer et al. is omitted,
// as in the paper). Each write runs on handles[t] of the thread t owning
// the acting user; confined keeps every edge inside one partition (the DAP
// contract).
func seed(b Backend, p Params, handles []*core.Handle, confined bool) {
	for u := 0; u < p.Users; u++ {
		uid := UserID(u)
		b.AddUser(handles[owner(uid, p.Threads)], uid)
	}

	// Follower edges: each user u receives deg(u) followers, deg drawn from
	// a power law; followers are picked with a Zipf-biased sampler (popular
	// users follow more, mirroring the activity skew). A Follow runs on the
	// FOLLOWER's owner thread.
	degrees := stats.PowerLawDegrees(p.Users, p.MaxDegree, 2.0, p.Seed)
	pick := stats.NewZipfian(p.Users, p.Alpha, p.Seed+1)
	for u := 0; u < p.Users; u++ {
		uid := UserID(u)
		for d := 0; d < degrees[u]; d++ {
			f := UserID(pick.Next())
			if f == uid {
				continue
			}
			if confined {
				// Remap the follower into u's partition.
				delta := (owner(uid, p.Threads) - owner(f, p.Threads) + p.Threads) % p.Threads
				f = UserID((int(f) + delta) % p.Users)
				if owner(f, p.Threads) != owner(uid, p.Threads) || f == uid {
					continue
				}
			}
			b.Follow(handles[owner(f, p.Threads)], f, uid)
		}
	}
}

// apply executes one generated operation on b from the acting thread's
// handle; tl is the thread's timeline buffer.
func apply(b Backend, h *core.Handle, op Op, tl []Tweet) {
	switch op.Kind {
	case OpAddUser:
		b.AddUser(h, op.User)
	case OpFollow:
		// Follow, then immediately apply the converse to keep the graph
		// invariant (§6.3); the converse is not measured.
		b.Follow(h, op.User, op.Target)
		b.Unfollow(h, op.User, op.Target)
	case OpPost:
		b.Post(h, op.User, Tweet{Author: op.User, Seq: op.Seq})
	case OpTimeline:
		b.Timeline(h, op.User, tl)
	case OpJoinGroup:
		b.JoinGroup(h, op.User)
	case OpLeaveGroup:
		b.LeaveGroup(h, op.User)
	default:
		b.UpdateProfile(h, op.User, op.Seq)
	}
}

// Run executes the benchmark and returns the measurement.
func Run(kind Kind, p Params) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	reg := core.NewRegistry(2*p.Threads + 8)

	// Workers register first so their ids are 0..Threads-1 (the DAP
	// partition index); handles are created here and handed to the worker
	// goroutines before they start.
	workers := register(reg, p.Threads)
	b, _ := Build(kind, p, reg)
	parts := partition(p)

	var (
		stop     atomic.Bool
		begin    = make(chan struct{})
		started  sync.WaitGroup
		finished sync.WaitGroup
		counts   = make([]int64, p.Threads)
	)

	worker := func(tid int) {
		defer finished.Done()
		h := workers[tid]
		gen := NewGenerator(tid, p, parts[tid], kind == KindDAP)
		tl := make([]Tweet, TimelineSize)

		started.Done()
		<-begin
		n := int64(0)
		if p.OpsPerThread > 0 {
			for i := 0; i < p.OpsPerThread; i++ {
				apply(b, h, gen.Next(), tl)
				n++
			}
		} else {
			for !stop.Load() {
				for i := 0; i < 16; i++ {
					apply(b, h, gen.Next(), tl)
				}
				n += 16
			}
		}
		counts[tid] = n
	}

	started.Add(p.Threads)
	finished.Add(p.Threads)
	for tid := 0; tid < p.Threads; tid++ {
		go worker(tid)
	}
	started.Wait()
	t0 := time.Now()
	close(begin)
	if p.OpsPerThread == 0 {
		time.Sleep(p.Duration)
		stop.Store(true)
	}
	finished.Wait()
	elapsed := time.Since(t0)

	var total int64
	for _, c := range counts {
		total += c
	}
	return Result{
		Backend: kind.String(),
		Users:   p.Users,
		Threads: p.Threads,
		Ops:     total,
		Elapsed: elapsed,
	}, nil
}

// Figure9 regenerates the speedup-vs-JUC table: users × threads, with every
// other backend relative to the JUC baseline.
func Figure9(w io.Writer, base Params, usersList []int, threads []int) error {
	fmt.Fprintf(w, "=== Figure 9: social network speedup over JUC (Table 2 mix, alpha=%.1f) ===\n\n", base.Alpha)
	for _, users := range usersList {
		fmt.Fprintf(w, "## %dK users\n%-10s%12s", users/1000, "threads", "JUC Mops/s")
		for _, k := range kinds[1:] {
			fmt.Fprintf(w, "%12s", k.label()+"/JUC")
		}
		fmt.Fprintln(w)
		for _, t := range threads {
			p := base
			p.Users = users
			p.Threads = t
			juc, err := Run(kinds[0], p)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-10d%12.3f", t, juc.OpsPerSec()/1e6)
			for _, k := range kinds[1:] {
				res, err := Run(k, p)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%11.2fx", res.OpsPerSec()/juc.OpsPerSec())
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Figure10 regenerates the throughput-vs-alpha table (user access
// distribution sweep) for every backend.
func Figure10(w io.Writer, base Params, alphas []float64) error {
	fmt.Fprintf(w, "=== Figure 10: varying the user access distribution (users=%d, threads=%d) ===\n\n",
		base.Users, base.Threads)
	fmt.Fprintf(w, "%-8s", "alpha")
	for _, k := range kinds {
		fmt.Fprintf(w, "%14s", k.label()+" Mops/s")
	}
	fmt.Fprintln(w)
	for _, a := range alphas {
		p := base
		p.Alpha = a
		fmt.Fprintf(w, "%-8.2f", a)
		for _, k := range kinds {
			res, err := Run(k, p)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%14.3f", res.OpsPerSec()/1e6)
		}
		fmt.Fprintln(w)
	}
	return nil
}
