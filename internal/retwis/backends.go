package retwis

import (
	"fmt"
	"sort"

	"github.com/adjusted-objects/dego"
	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/set"
	"github.com/adjusted-objects/dego/internal/stats"
)

// The JUC, DEGO and FLAT backends are one push-model application built
// from three declarations: every top-level shared object is constructed
// through the public profile API, the declaration says how the application
// uses it (commuting per-user writes, single-consumer timelines, or nothing
// at all), and the planner picks the representation. The application code
// never names a representation. UserID is a named integer type, so the
// node-based declarations pass WithHash explicitly (the built-in default
// hashers cover only the unnamed key types).
//
// The per-user inner sets (set.Locked) stay deliberately unadjusted and
// un-planned (§6.3: adjusting them costs more in write amplification than
// it saves); they are values inside the planned maps, not shared catalog
// objects.

func userHash(u UserID) uint64 { return stats.Hash64(uint64(u)) }

// profile is an immutable profile snapshot, replaced wholesale on update
// (every backend pays the same allocation).
type profile struct {
	Version int64
}

// ---------------------------------------------------------------------------
// Push-model backend: JUC, DEGO and FLAT

// declaration is what tells JUC, DEGO and FLAT apart: the options each
// shared table is planned from. The four per-user maps (followers,
// following, timelines, profiles) are used identically, so they share one
// option list.
type declaration struct {
	userMap   []dego.Option
	community []dego.Option
	timeline  []dego.Option // each user's queue
}

// declare returns kind's declaration for a graph of users users.
func declare(kind Kind, users int) declaration {
	hash := dego.WithHash(userHash)
	group := users/8 + 16
	switch kind {
	case KindJUC:
		// No restriction declared: lock-striped tables and Michael–Scott
		// timelines, the unadjusted baseline.
		return declaration{
			userMap:   []dego.Option{dego.Stripes(256), dego.Capacity(users), hash},
			community: []dego.Option{dego.Stripes(256), dego.Capacity(group), hash},
		}
	case KindDEGO:
		// Per-user writes commute (distinct threads own distinct users), so
		// the tables are (M2, CWMR) and (S3, CWMR) segmentations; a
		// timeline's single consumer is its user's owner thread (Q1, MWSR).
		dir := dego.Buckets(2 * users)
		return declaration{
			userMap:   []dego.Option{dego.CommutingWriters(), dego.Capacity(users), dir, hash},
			community: []dego.Option{dego.CommutingWriters(), dego.Capacity(group), dir, hash},
			timeline:  []dego.Option{dego.SingleReader()},
		}
	case KindFLAT:
		// The DEGO profile without hash or directory tuning: commuting
		// writers plus a declared capacity over an integer key is the
		// planner's flat gate, so the tables land in preallocated slot
		// arrays (the integer-key codec reinterprets UserID).
		return declaration{
			userMap:   []dego.Option{dego.CommutingWriters(), dego.Capacity(users)},
			community: []dego.Option{dego.CommutingWriters(), dego.Capacity(group)},
			timeline:  []dego.Option{dego.SingleReader()},
		}
	}
	panic(fmt.Sprintf("retwis: no push-model declaration for %v", kind))
}

// timeline is a user's pending-message queue as the push model drives it:
// any thread offers, the owner thread polls. The planned MPSC queue has
// these methods, so a timeline stores the bare representation: a facade
// per user would grow the heap of a 100k-user graph by about 13%. The
// Michael–Scott baseline lacks the handle-taking methods, and a recorded
// queue must go through its recorder, so both keep their facade.
type timeline interface {
	Offer(h *core.Handle, t Tweet)
	Poll(h *core.Handle) (Tweet, bool)
}

// pushBackend is the application of §6.3: a post is pushed into the
// timeline queue of each of the author's first FanoutLimit followers, and
// a timeline read drains the reader's queue. Callers own the acting user,
// as the Backend contract says; which representation serves each table is
// the declaration's business.
type pushBackend struct {
	kind      Kind
	followers *dego.AdjustedMap[UserID, *set.Locked[UserID]]
	following *dego.AdjustedMap[UserID, *set.Locked[UserID]]
	timelines *dego.AdjustedMap[UserID, timeline]
	profiles  *dego.AdjustedMap[UserID, *profile]
	community *dego.AdjustedSet[UserID]
	queue     []dego.Option // the timeline declaration, placed on the registry
	// record attaches usage recorders to the tables and to user 0's
	// timeline, the representative queue (a recorder per user would
	// cost memory for identical evidence).
	record bool
}

// newPushBackend plans kind's declaration on r for a graph of users users.
func newPushBackend(kind Kind, r *core.Registry, users int, record bool) *pushBackend {
	d := declare(kind, users)
	placed := func(opts []dego.Option) []dego.Option {
		out := append([]dego.Option{dego.On(r)}, opts...)
		if record {
			out = append(out, dego.WithUsageRecording())
		}
		return out
	}
	m := placed(d.userMap)
	return &pushBackend{
		kind:      kind,
		followers: dego.Must(dego.Map[UserID, *set.Locked[UserID]](m...)),
		following: dego.Must(dego.Map[UserID, *set.Locked[UserID]](m...)),
		timelines: dego.Must(dego.Map[UserID, timeline](m...)),
		profiles:  dego.Must(dego.Map[UserID, *profile](m...)),
		community: dego.Must(dego.Set[UserID](placed(d.community)...)),
		queue:     append([]dego.Option{dego.On(r)}, d.timeline...),
		record:    record,
	}
}

// timelinePlan plans one timeline from the declaration.
func (b *pushBackend) timelinePlan() dego.Plan {
	return dego.Must(dego.Queue[Tweet](b.queue...)).Plan()
}

func (b *pushBackend) newTimeline(u UserID) timeline {
	if b.record && u == 0 {
		opts := append(b.queue[:len(b.queue):len(b.queue)], dego.WithUsageRecording())
		return dego.Must(dego.Queue[Tweet](opts...))
	}
	q := dego.Must(dego.Queue[Tweet](b.queue...))
	if t, ok := q.Representation().(timeline); ok {
		return t
	}
	return q
}

func (b *pushBackend) Name() string { return b.kind.String() }

func (b *pushBackend) AddUser(h *core.Handle, u UserID) {
	b.followers.Put(h, u, set.NewLocked[UserID](4, nil))
	b.following.Put(h, u, set.NewLocked[UserID](4, nil))
	b.timelines.Put(h, u, b.newTimeline(u))
	b.profiles.Put(h, u, &profile{})
}

func (b *pushBackend) Follow(_ *core.Handle, follower, followee UserID) {
	// Map reads only: the inner sets absorb the writes.
	if s, ok := b.following.Get(follower); ok {
		s.Add(followee)
	}
	if s, ok := b.followers.Get(followee); ok {
		s.Add(follower)
	}
}

func (b *pushBackend) Unfollow(_ *core.Handle, follower, followee UserID) {
	if s, ok := b.following.Get(follower); ok {
		s.Remove(followee)
	}
	if s, ok := b.followers.Get(followee); ok {
		s.Remove(follower)
	}
}

func (b *pushBackend) Post(h *core.Handle, author UserID, t Tweet) {
	fset, ok := b.followers.Get(author)
	if !ok {
		return
	}
	n := 0
	fset.Range(func(f UserID) bool {
		if q, ok := b.timelines.Get(f); ok {
			// Any thread may produce into a timeline.
			q.Offer(h, t)
		}
		n++
		return n < FanoutLimit
	})
}

// Timeline fetches every queued message and keeps the most recent len(out)
// of them (the paper reads the full queue and returns the last 50). The
// owner thread is the queue's unique consumer.
func (b *pushBackend) Timeline(h *core.Handle, u UserID, out []Tweet) int {
	q, ok := b.timelines.Get(u)
	if !ok {
		return 0
	}
	n := 0
	for {
		t, ok := q.Poll(h)
		if !ok {
			break
		}
		if n < len(out) {
			out[n] = t
			n++
		} else {
			copy(out, out[1:])
			out[len(out)-1] = t
		}
	}
	return n
}

func (b *pushBackend) JoinGroup(h *core.Handle, u UserID)  { b.community.Add(h, u) }
func (b *pushBackend) LeaveGroup(h *core.Handle, u UserID) { b.community.Remove(h, u) }

func (b *pushBackend) UpdateProfile(h *core.Handle, u UserID, version int64) {
	b.profiles.Put(h, u, &profile{Version: version})
}

func (b *pushBackend) InGroup(u UserID) bool { return b.community.Contains(u) }

func (b *pushBackend) Followers(u UserID) int {
	if s, ok := b.followers.Get(u); ok {
		return s.Len()
	}
	return 0
}

func (b *pushBackend) Users() int { return b.profiles.Len() }

// ---------------------------------------------------------------------------
// ADAPTIVE backend

// adaptivePostLog bounds how many posts an author retains in the shared post
// log: on each post the author prunes its own oldest entries past this cap
// (pruning by the author keeps the commuting-writers contract — only the
// thread that inserted a key ever removes it).
const adaptivePostLog = 64

// postSeqBits is the width of the per-author sequence field inside a post
// key; the author id occupies the bits above it. A retwis run is bounded
// (seconds, or OpsPerThread), so both fields are far from overflow at any
// paper-scale configuration (≤ 2^36 users, ≤ 2^28 posts per author).
const postSeqBits = 28

// postKey orders the shared post log by (author, seq): all of an author's
// posts are contiguous, ascending in sequence number.
func postKey(author UserID, seq int64) uint64 {
	return uint64(author)<<postSeqBits | uint64(seq)&(1<<postSeqBits-1)
}

// tlCursor is a user's timeline read position: the last-seen sequence number
// per followee. It is an immutable snapshot, replaced wholesale by the
// user's owner thread on each timeline read (the same RCU-style profile
// idiom the push-model backend uses).
type tlCursor struct {
	seen map[UserID]int64
}

// adaptiveBackend runs every shared structure on the contention-adaptive
// objects: the per-user maps (followers, following, profiles, community,
// cursors) are adaptive.Map — lock-striped until contention promotes them to
// the extended segmentation — and the timelines are one shared
// adaptive.SortedMap used as a pull-model post log.
//
// The timeline design differs from the push model by necessity: push-model fan-out
// (author writes into each follower's queue) is MWSR, which the sorted map's
// commuting-writers contract cannot express. Instead the backend fans out on
// read: Post appends to the author's own contiguous key range of the log
// (keys are (author, seq), so distinct threads write distinct keys in every
// state), and Timeline merges the caller's followees' recent ranges with
// RangeFrom, remembering per-followee cursors so a message is delivered
// once. Reads may therefore see posts made before the follow edge existed,
// and — like Post's FanoutLimit in the push backends — a reader scans at
// most FanoutLimit followees per refresh.
type adaptiveBackend struct {
	followers *dego.AdaptiveMap[UserID, *set.Locked[UserID]]
	following *dego.AdaptiveMap[UserID, *set.Locked[UserID]]
	posts     *dego.AdaptiveSkipList[uint64, Tweet]
	cursors   *dego.AdaptiveMap[UserID, *tlCursor]
	profiles  *dego.AdaptiveMap[UserID, *profile]
	community *dego.AdaptiveMap[UserID, struct{}]
}

// adMap plans a contention-adaptive per-user map: commuting writers in
// every state, striped until the stall rate promotes it.
func adMap[V any](r *core.Registry, capacity, dir int) *dego.AdaptiveMap[UserID, V] {
	return dego.Must(dego.Map[UserID, V](dego.CommutingWriters(), dego.Adaptive(), dego.On(r),
		dego.Stripes(256), dego.Capacity(capacity), dego.Buckets(dir), dego.WithHash(userHash))).Adaptive()
}

// NewAdaptive builds the contention-adaptive backend over a registry (each
// adaptive object carries its own contention probe).
func NewAdaptive(r *core.Registry, expectedUsers int) Backend {
	dir := expectedUsers * 2
	return &adaptiveBackend{
		followers: adMap[*set.Locked[UserID]](r, expectedUsers, dir),
		following: adMap[*set.Locked[UserID]](r, expectedUsers, dir),
		// The post log's uint64 keys hash with the built-in default hasher.
		posts: dego.Must(dego.Ordered[uint64, Tweet](dego.CommutingWriters(), dego.Adaptive(),
			dego.On(r), dego.Buckets(dir*adaptivePostLog/8))).Adaptive(),
		cursors:   adMap[*tlCursor](r, expectedUsers, dir),
		profiles:  adMap[*profile](r, expectedUsers, dir),
		community: adMap[struct{}](r, expectedUsers/8+16, dir),
	}
}

func (b *adaptiveBackend) Name() string { return "ADAPTIVE" }

func (b *adaptiveBackend) AddUser(h *core.Handle, u UserID) {
	b.followers.Put(h, u, set.NewLocked[UserID](4, nil))
	b.following.Put(h, u, set.NewLocked[UserID](4, nil))
	b.profiles.Put(h, u, &profile{})
}

func (b *adaptiveBackend) Follow(_ *core.Handle, follower, followee UserID) {
	// Map reads only; the inner sets are deliberately NOT adjusted, as in
	// the push-model backend (§6.3).
	if s, ok := b.following.Get(follower); ok {
		s.Add(followee)
	}
	if s, ok := b.followers.Get(followee); ok {
		s.Add(follower)
	}
}

func (b *adaptiveBackend) Unfollow(_ *core.Handle, follower, followee UserID) {
	if s, ok := b.following.Get(follower); ok {
		s.Remove(followee)
	}
	if s, ok := b.followers.Get(followee); ok {
		s.Remove(follower)
	}
}

// Post appends the tweet to the author's range of the shared post log, then
// periodically prunes the author's oldest entries past adaptivePostLog (the
// walk is amortized over eight posts, so the log holds at most a few entries
// more than the cap between prunes). Both the insert and the prune touch
// only keys of the acting author, so the log's CWMR contract holds no matter
// how authors interleave.
func (b *adaptiveBackend) Post(h *core.Handle, author UserID, t Tweet) {
	b.posts.Put(h, postKey(author, t.Seq), t)
	if t.Seq&7 != 0 {
		return
	}
	var keys []uint64
	b.posts.RangeBetween(postKey(author, 0), postKey(author+1, 0), func(k uint64, _ Tweet) bool {
		keys = append(keys, k)
		return true
	})
	for len(keys) > adaptivePostLog {
		b.posts.Remove(h, keys[0])
		keys = keys[1:]
	}
}

// Timeline merges the new posts of the user's followees (at most FanoutLimit
// of them, mirroring the push backends' delivery cap) and returns the last
// len(out) by sequence number. The per-followee cursor snapshot is replaced
// wholesale by the user's owner thread, so repeat reads return only unseen
// messages.
func (b *adaptiveBackend) Timeline(h *core.Handle, u UserID, out []Tweet) int {
	fset, ok := b.following.Get(u)
	if !ok {
		return 0
	}
	var old map[UserID]int64
	if cur, ok := b.cursors.Get(u); ok {
		old = cur.seen
	}
	var fresh []Tweet
	seen := make(map[UserID]int64, len(old))
	for f, s := range old {
		seen[f] = s
	}
	scanned := 0
	fset.Range(func(f UserID) bool {
		from := postKey(f, 0)
		if last, ok := seen[f]; ok {
			from = postKey(f, last+1)
		}
		b.posts.RangeBetween(from, postKey(f+1, 0), func(k uint64, t Tweet) bool {
			fresh = append(fresh, t)
			seen[f] = t.Seq
			return true
		})
		scanned++
		return scanned < FanoutLimit
	})
	if len(fresh) == 0 {
		return 0
	}
	b.cursors.Put(h, u, &tlCursor{seen: seen})
	sort.Slice(fresh, func(i, j int) bool {
		if fresh[i].Seq != fresh[j].Seq {
			return fresh[i].Seq < fresh[j].Seq
		}
		return fresh[i].Author < fresh[j].Author
	})
	if len(fresh) > len(out) {
		fresh = fresh[len(fresh)-len(out):]
	}
	copy(out, fresh)
	return len(fresh)
}

func (b *adaptiveBackend) JoinGroup(h *core.Handle, u UserID) {
	b.community.Put(h, u, struct{}{})
}

func (b *adaptiveBackend) LeaveGroup(h *core.Handle, u UserID) {
	b.community.Remove(h, u)
}

func (b *adaptiveBackend) UpdateProfile(h *core.Handle, u UserID, version int64) {
	b.profiles.Put(h, u, &profile{Version: version})
}

func (b *adaptiveBackend) InGroup(u UserID) bool { return b.community.Contains(u) }

func (b *adaptiveBackend) Followers(u UserID) int {
	if s, ok := b.followers.Get(u); ok {
		return s.Len()
	}
	return 0
}

func (b *adaptiveBackend) Users() int { return b.profiles.Len() }

// ---------------------------------------------------------------------------
// DAP backend

// dapPart is one thread's private, unsynchronized state.
type dapPart struct {
	_         core.Pad
	followers map[UserID]map[UserID]bool
	following map[UserID]map[UserID]bool
	timelines map[UserID][]Tweet
	profiles  map[UserID]int64
	community map[UserID]bool
	_         core.Pad
}

type dapBackend struct {
	parts []dapPart
}

// NewDAP builds the disjoint-access-parallel upper bound: threads touch only
// their own partition, so nothing synchronizes. The workload generator must
// keep every operation within the acting thread's partition.
func NewDAP(threads int) Backend {
	b := &dapBackend{parts: make([]dapPart, threads)}
	for i := range b.parts {
		b.parts[i] = dapPart{
			followers: map[UserID]map[UserID]bool{},
			following: map[UserID]map[UserID]bool{},
			timelines: map[UserID][]Tweet{},
			profiles:  map[UserID]int64{},
			community: map[UserID]bool{},
		}
	}
	return b
}

func (b *dapBackend) Name() string { return "DAP" }

func (b *dapBackend) part(h *core.Handle) *dapPart {
	return &b.parts[h.ID()%len(b.parts)]
}

func (b *dapBackend) AddUser(h *core.Handle, u UserID) {
	p := b.part(h)
	p.followers[u] = map[UserID]bool{}
	p.following[u] = map[UserID]bool{}
	p.timelines[u] = nil
	p.profiles[u] = 0
}

func (b *dapBackend) Follow(h *core.Handle, follower, followee UserID) {
	p := b.part(h)
	if s := p.following[follower]; s != nil {
		s[followee] = true
	}
	if s := p.followers[followee]; s != nil {
		s[follower] = true
	}
}

func (b *dapBackend) Unfollow(h *core.Handle, follower, followee UserID) {
	p := b.part(h)
	if s := p.following[follower]; s != nil {
		delete(s, followee)
	}
	if s := p.followers[followee]; s != nil {
		delete(s, follower)
	}
}

func (b *dapBackend) Post(h *core.Handle, author UserID, t Tweet) {
	p := b.part(h)
	n := 0
	for f := range p.followers[author] {
		p.timelines[f] = append(p.timelines[f], t)
		n++
		if n >= FanoutLimit {
			break
		}
	}
}

func (b *dapBackend) Timeline(h *core.Handle, u UserID, out []Tweet) int {
	p := b.part(h)
	tl := p.timelines[u]
	n := len(tl)
	if n > len(out) {
		tl = tl[n-len(out):]
		n = len(out)
	}
	copy(out, tl)
	p.timelines[u] = p.timelines[u][:0]
	return n
}

func (b *dapBackend) JoinGroup(h *core.Handle, u UserID)  { b.part(h).community[u] = true }
func (b *dapBackend) LeaveGroup(h *core.Handle, u UserID) { delete(b.part(h).community, u) }

func (b *dapBackend) UpdateProfile(h *core.Handle, u UserID, version int64) {
	b.part(h).profiles[u] = version
}

func (b *dapBackend) InGroup(u UserID) bool {
	for i := range b.parts {
		if b.parts[i].community[u] {
			return true
		}
	}
	return false
}

func (b *dapBackend) Followers(u UserID) int {
	for i := range b.parts {
		if s, ok := b.parts[i].followers[u]; ok {
			return len(s)
		}
	}
	return 0
}

func (b *dapBackend) Users() int {
	n := 0
	for i := range b.parts {
		n += len(b.parts[i].profiles)
	}
	return n
}
