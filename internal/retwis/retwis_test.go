package retwis

import (
	"strings"
	"sync"
	"testing"

	"github.com/adjusted-objects/dego"
	"github.com/adjusted-objects/dego/internal/core"
)

func testParams(users, threads int) Params {
	p := DefaultParams()
	p.Users = users
	p.Threads = threads
	p.OpsPerThread = 500
	p.MaxDegree = 32
	return p
}

func TestMixTable2(t *testing.T) {
	m := DefaultMix()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// The exact Table 2 percentages.
	if m.AddUser != 5 || m.Follow != 5 || m.Post != 15 ||
		m.Timeline != 60 || m.Group != 5 || m.Profile != 10 {
		t.Fatalf("mix = %+v, want Table 2", m)
	}
	bad := Mix{AddUser: 50, Follow: 50, Post: 50}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid mix accepted")
	}
}

func eachBackend(t *testing.T, users, threads int, f func(t *testing.T, b Backend, h []*core.Handle)) {
	t.Helper()
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			reg := core.NewRegistry(2*threads + 8)
			workers := register(reg, threads)
			p := testParams(users, threads)
			b, _ := Build(kind, p, reg)
			f(t, b, workers)
		})
	}
}

func TestBackendSemantics(t *testing.T) {
	const users, threads = 64, 4
	eachBackend(t, users, threads, func(t *testing.T, b Backend, workers []*core.Handle) {
		if got := b.Users(); got != users {
			t.Fatalf("Users = %d, want %d", got, users)
		}
		// u=1 is owned by thread 1; u=5 too (5 mod 4 = 1).
		h := workers[1]
		// The seeded graph may already contain the edge 1→5: clear it first.
		b.Unfollow(h, 1, 5)
		before := b.Followers(5)
		b.Follow(h, 1, 5)
		if got := b.Followers(5); got != before+1 {
			t.Fatalf("Followers(5) = %d, want %d", got, before+1)
		}
		b.Unfollow(h, 1, 5)
		if got := b.Followers(5); got != before {
			t.Fatalf("after unfollow Followers(5) = %d, want %d", got, before)
		}

		// Group membership.
		if b.InGroup(5) {
			b.LeaveGroup(h, 5)
		}
		b.JoinGroup(h, 5)
		if !b.InGroup(5) {
			t.Fatal("JoinGroup did not register")
		}
		b.LeaveGroup(h, 5)
		if b.InGroup(5) {
			t.Fatal("LeaveGroup did not apply")
		}

		// Post/timeline: 1 follows 5, 5 posts, 1 reads.
		b.Follow(h, 1, 5)
		b.Post(h, 5, Tweet{Author: 5, Seq: 99})
		tl := make([]Tweet, TimelineSize)
		n := b.Timeline(workers[1], 1, tl)
		found := false
		for i := 0; i < n; i++ {
			if tl[i].Author == 5 && tl[i].Seq == 99 {
				found = true
			}
		}
		if !found {
			t.Fatalf("timeline of follower missed the tweet (n=%d)", n)
		}
		// A second read returns nothing new.
		if n := b.Timeline(workers[1], 1, tl); n != 0 {
			t.Fatalf("second timeline read = %d messages, want 0", n)
		}
		b.UpdateProfile(h, 5, 7)
	})
}

func TestTimelineKeepsLastN(t *testing.T) {
	const users, threads = 16, 2
	eachBackend(t, users, threads, func(t *testing.T, b Backend, workers []*core.Handle) {
		h1 := workers[1]
		// User 3 follows user 5; both are owned by thread 1, so the
		// scenario is valid even under DAP's intra-partition contract.
		b.Follow(h1, 3, 5)
		b.Timeline(h1, 3, make([]Tweet, TimelineSize)) // clear pre-seeded entries
		for i := 0; i < TimelineSize+20; i++ {
			b.Post(h1, 5, Tweet{Author: 5, Seq: int64(i)})
		}
		tl := make([]Tweet, TimelineSize)
		n := b.Timeline(h1, 3, tl)
		if n != TimelineSize {
			t.Fatalf("timeline = %d messages, want %d", n, TimelineSize)
		}
		// Must be the LAST 50: sequences 20..69.
		if tl[0].Seq != 20 || tl[n-1].Seq != int64(TimelineSize+19) {
			t.Fatalf("window = [%d, %d], want [20, %d]", tl[0].Seq, tl[n-1].Seq, TimelineSize+19)
		}
	})
}

func TestGraphSeedIsPowerLaw(t *testing.T) {
	reg := core.NewRegistry(24)
	p := testParams(2000, 4)
	b, _ := Build(KindJUC, p, reg)
	// Some user must have far more followers than the median — the heavy
	// tail of the power law.
	maxF, withAny := 0, 0
	for u := 0; u < p.Users; u++ {
		f := b.Followers(UserID(u))
		if f > maxF {
			maxF = f
		}
		if f > 0 {
			withAny++
		}
	}
	if maxF < 8 {
		t.Fatalf("max followers = %d; degree distribution has no tail", maxF)
	}
	if withAny < p.Users/10 {
		t.Fatalf("only %d users have followers", withAny)
	}
}

func TestRunAllBackends(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			p := testParams(512, 4)
			res, err := Run(kind, p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops != int64(p.Threads*p.OpsPerThread) {
				t.Fatalf("ops = %d, want %d", res.Ops, p.Threads*p.OpsPerThread)
			}
			if res.OpsPerSec() <= 0 {
				t.Fatal("non-positive throughput")
			}
			if res.Backend != kind.String() {
				t.Fatalf("backend label = %q", res.Backend)
			}
		})
	}
}

func TestRunRejectsBadParams(t *testing.T) {
	p := testParams(2, 4) // fewer users than threads
	if _, err := Run(KindJUC, p); err == nil {
		t.Fatal("accepted users < threads")
	}
	p = testParams(512, 4)
	p.Mix = Mix{AddUser: 10}
	if _, err := Run(KindJUC, p); err == nil {
		t.Fatal("accepted invalid mix")
	}
}

func TestFigure9And10Printers(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke test")
	}
	p := testParams(512, 2)
	p.OpsPerThread = 200

	var sb strings.Builder
	if err := Figure9(&sb, p, []int{512}, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Figure 9", "0K users", "DEGO/JUC", "ADPT/JUC", "DAP/JUC"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure9 output missing %q:\n%s", want, out)
		}
	}

	sb.Reset()
	if err := Figure10(&sb, p, []float64{0, 1}); err != nil {
		t.Fatal(err)
	}
	out = sb.String()
	for _, want := range []string{"Figure 10", "alpha", "DEGO Mops/s", "ADPT Mops/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure10 output missing %q:\n%s", want, out)
		}
	}
}

// TestRunPreservesInvariants drives the shared op loop on a built backend
// and checks the application invariants on that same backend: every drawn
// AddUser registered exactly one user, and follow-then-unfollow (§6.3) can
// only remove seeded edges, never add one, and only edges a Follow drew.
func TestRunPreservesInvariants(t *testing.T) {
	const probe = UserID(1)
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			p := testParams(1000, 4)
			reg := core.NewRegistry(2*p.Threads + 8)
			workers := register(reg, p.Threads)
			b, _ := Build(kind, p, reg)
			before := b.Followers(probe)

			parts := partition(p)
			added := make([]int, p.Threads)
			touched := make([]map[UserID]bool, p.Threads) // followers of probe a Follow drew
			var wg sync.WaitGroup
			for tid, h := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					gen := NewGenerator(tid, p, parts[tid], kind == KindDAP)
					tl := make([]Tweet, TimelineSize)
					touched[tid] = map[UserID]bool{}
					for i := 0; i < p.OpsPerThread; i++ {
						op := gen.Next()
						switch {
						case op.Kind == OpAddUser:
							added[tid]++
						case op.Kind == OpFollow && op.Target == probe:
							touched[tid][op.User] = true
						}
						apply(b, h, op, tl)
					}
				}()
			}
			wg.Wait()

			want, lost := p.Users, 0
			for tid := range workers {
				want += added[tid]
				lost += len(touched[tid]) // a follower is owned by one thread
			}
			if added[0] == 0 {
				t.Fatal("the mix drew no AddUser; the user-count check is vacuous")
			}
			if got := b.Users(); got != want {
				t.Fatalf("Users = %d, want %d seeded + %d added", got, p.Users, want-p.Users)
			}
			if got := b.Followers(probe); got > before || got < before-lost {
				t.Fatalf("Followers(%d) = %d, want within [%d, %d]", probe, got, before-lost, before)
			}
		})
	}
}

// TestDeclarationsPlan pins the representation the planner picks for every
// table of each push-model declaration. The application never names a
// representation, so a planner change that moves a table fails here rather
// than silently changing what a figure measures.
func TestDeclarationsPlan(t *testing.T) {
	type plan struct{ rep, declared string }
	for _, c := range []struct {
		kind                      Kind
		userMap, community, queue plan
	}{
		{KindJUC, plan{"StripedMap", "(M1, ALL)"}, plan{"StripedSet", "(S1, ALL)"}, plan{"MSQueue", "(Q1, ALL)"}},
		{KindDEGO, plan{"SegmentedMap", "(M2, CWMR)"}, plan{"SegmentedSet", "(S3, CWMR)"}, plan{"MPSCQueue", "(Q1, MWSR)"}},
		{KindFLAT, plan{"FlatMap", "(M2, CWMR)"}, plan{"FlatSet", "(S3, CWMR)"}, plan{"MPSCQueue", "(Q1, MWSR)"}},
	} {
		t.Run(c.kind.String(), func(t *testing.T) {
			reg := core.NewRegistry(16)
			b, _ := Build(c.kind, testParams(64, 4), reg)
			pb := b.(*pushBackend)
			check := func(table string, got dego.Plan, want plan) {
				t.Helper()
				if got.Rep != want.rep || got.Declared() != want.declared {
					t.Errorf("%s: planned %s %s, want %s %s", table, got.Rep, got.Declared(), want.rep, want.declared)
				}
			}
			check("followers", pb.followers.Plan(), c.userMap)
			check("following", pb.following.Plan(), c.userMap)
			check("timelines", pb.timelines.Plan(), c.userMap)
			check("profiles", pb.profiles.Plan(), c.userMap)
			check("community", pb.community.Plan(), c.community)
			check("timeline", pb.timelinePlan(), c.queue)

			// A timeline stores the bare MPSC representation; only the
			// Michael–Scott baseline, which lacks the handle-taking
			// methods, keeps its facade.
			q, _ := pb.timelines.Get(1)
			if _, facade := q.(*dego.AdjustedQueue[Tweet]); facade != (c.queue.rep == "MSQueue") {
				t.Errorf("user timeline stored as %T", q)
			}
		})
	}
}
