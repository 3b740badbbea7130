package retwis

import (
	"testing"

	"github.com/adjusted-objects/dego/internal/server"
)

func netTestParams() Params {
	p := DefaultParams()
	p.Users = 64
	p.Threads = 2
	p.OpsPerThread = 200
	p.Duration = 0
	p.MaxDegree = 8
	return p
}

func TestGeneratorDeterministicAndPartitioned(t *testing.T) {
	p := netTestParams()
	part := make([][]UserID, p.Threads)
	for u := 0; u < p.Users; u++ {
		part[owner(UserID(u), p.Threads)] = append(part[owner(UserID(u), p.Threads)], UserID(u))
	}
	for tid := 0; tid < p.Threads; tid++ {
		a := NewGenerator(tid, p, part[tid], false)
		b := NewGenerator(tid, p, part[tid], false)
		for i := 0; i < 500; i++ {
			opA, opB := a.Next(), b.Next()
			if opA != opB {
				t.Fatalf("tid %d op %d: generators diverge: %+v vs %+v", tid, i, opA, opB)
			}
			// Every acting user (and every fresh id) stays on the
			// generating thread's ring position.
			if got := owner(opA.User, p.Threads); got != tid {
				t.Fatalf("tid %d op %d (%s): user %d owned by %d", tid, i, opA.Kind, opA.User, got)
			}
			if opA.Kind == OpAddUser && int64(opA.User) < int64(p.Users) {
				t.Fatalf("AddUser reused existing id %d", opA.User)
			}
		}
	}
}

func TestGeneratorConfinedTargets(t *testing.T) {
	p := netTestParams()
	part := make([][]UserID, p.Threads)
	for u := 0; u < p.Users; u++ {
		part[owner(UserID(u), p.Threads)] = append(part[owner(UserID(u), p.Threads)], UserID(u))
	}
	g := NewGenerator(1, p, part[1], true)
	for i := 0; i < 2000; i++ {
		op := g.Next()
		if op.Kind == OpFollow && owner(op.Target, p.Threads) != 1 {
			t.Fatalf("confined generator picked out-of-partition target %d", op.Target)
		}
	}
}

func TestNetClientAgainstLocalStore(t *testing.T) {
	st, err := server.NewStore(server.StoreConfig{Shards: 2, Kind: server.StoreAdaptive})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	p := netTestParams()
	graph := BuildGraph(p)
	kv := &LocalKV{St: st}
	if err := SeedKV(kv, p, graph); err != nil {
		t.Fatal(err)
	}
	if st.Len() == 0 {
		t.Fatal("seeding left the store empty")
	}

	cl := NewNetClient(kv, graph)
	gen := NewGenerator(0, p, usersOf(p, 0), false)
	for batch := 0; batch < 20; batch++ {
		for i := 0; i < 10; i++ {
			cl.AppendOp(gen.Next())
		}
		if err := cl.Flush(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
	}

	// Spot-check the key scheme took effect: a post bumped the counter.
	rep := st.Exec([][]byte{[]byte("GET"), []byte("stat:posts")})
	if rep.Kind == 0 || rep.IsError() {
		t.Fatalf("stat:posts reply %v", rep)
	}
}

func usersOf(p Params, tid int) []UserID {
	var mine []UserID
	for u := 0; u < p.Users; u++ {
		if owner(UserID(u), p.Threads) == tid {
			mine = append(mine, UserID(u))
		}
	}
	return mine
}
