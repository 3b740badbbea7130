// Package retwis implements the social-network application of §6.3: a
// multithreaded Retwis-like benchmark (a simplified Twitter clone). Users
// write messages, follow/unfollow each other, read their timelines, join and
// leave an interest group, and update their profiles.
//
// The application maintains five shared structures — mapFollowers,
// mapFollowing, mapTimelines, mapProfiles and community — plus one timeline
// queue per user. It is written once; the backends that run it differ only
// in how each structure is declared (see declare in backends.go):
//
//   - JUC: nothing declared, so the planner yields lock-striped maps and
//     sets and Michael–Scott timeline queues.
//   - DEGO: the maps are declared commuting-writers, (M2, CWMR) segmented
//     maps; the community set likewise (S3, CWMR); the timeline queues are
//     single-consumer (Q1, MWSR). The follower/following sets inside the
//     maps stay JUC-style: the paper reports that adjusting them too costs
//     more in write amplification than it saves in contention.
//   - FLAT: the DEGO declaration without hash or directory tuning, which
//     the planner places in flat open-addressing tables.
//
// The advisor replay (AdviseRun) is the same application again, under the
// JUC declaration with usage recording on.
//
// Two backends use different algorithms and are written separately:
//
//   - DAP: disjoint-access parallel — each thread works on private
//     unsynchronized structures; the upper bound on parallel performance.
//   - ADAPTIVE: every shared structure is a contention-adaptive object — the
//     per-user maps are adaptive hash maps and the timelines are one shared
//     adaptive sorted map used as a pull-model post log (see backends.go).
//     This is the end-to-end exercise of the internal/adaptive engine on a
//     realistic mixed workload, not a paper figure.
//
// Each thread owns a partition of the users (consistent hashing degenerated
// to the modulo ring, as ids are dense); an operation always executes on the
// thread owning its acting user.
package retwis

import (
	"fmt"

	"github.com/adjusted-objects/dego/internal/core"
)

// UserID identifies a user. Owner thread = id mod threads.
type UserID int64

// Tweet is one timeline entry.
type Tweet struct {
	Author UserID
	Seq    int64
}

// TimelineSize is how many messages a timeline read returns (the paper's
// "last 50 messages").
const TimelineSize = 50

// FanoutLimit bounds the synchronous delivery of a post to "the first
// followers" (§6.3); delivery to the rest would be asynchronous and is not
// implemented, exactly as in the paper.
const FanoutLimit = 64

// Mix is the operation mix of Table 2, in percent.
type Mix struct {
	AddUser  int // add a user
	Follow   int // follow/unfollow a user
	Post     int // post a tweet
	Timeline int // display the timeline
	Group    int // join/leave the interest group
	Profile  int // update the profile
}

// DefaultMix is Table 2: 5/5/15/60/5/10.
func DefaultMix() Mix {
	return Mix{AddUser: 5, Follow: 5, Post: 15, Timeline: 60, Group: 5, Profile: 10}
}

// Total returns the sum of the mix percentages.
func (m Mix) Total() int {
	return m.AddUser + m.Follow + m.Post + m.Timeline + m.Group + m.Profile
}

// Validate checks the mix sums to 100.
func (m Mix) Validate() error {
	if m.Total() != 100 {
		return fmt.Errorf("retwis: operation mix sums to %d%%, want 100%%", m.Total())
	}
	return nil
}

// Backend is one implementation of the application's shared state. Methods
// take the acting thread's handle; the contract (who may call what on which
// user) depends on the backend's adjustment and is documented per backend.
type Backend interface {
	Name() string

	// AddUser registers a user owned by the calling thread.
	AddUser(h *core.Handle, u UserID)
	// Follow makes follower follow followee; Unfollow reverts it. The
	// calling thread owns follower.
	Follow(h *core.Handle, follower, followee UserID)
	Unfollow(h *core.Handle, follower, followee UserID)
	// Post delivers a tweet to the first FanoutLimit followers of the
	// author. The calling thread owns the author.
	Post(h *core.Handle, author UserID, t Tweet)
	// Timeline fetches the author's pending messages and returns the last
	// TimelineSize of them. The calling thread owns the user.
	Timeline(h *core.Handle, u UserID, out []Tweet) int
	// JoinGroup/LeaveGroup update the interest group for a user owned by
	// the calling thread.
	JoinGroup(h *core.Handle, u UserID)
	LeaveGroup(h *core.Handle, u UserID)
	// UpdateProfile replaces the profile of a user owned by the calling
	// thread.
	UpdateProfile(h *core.Handle, u UserID, version int64)
	// InGroup reports whether u joined the interest group.
	InGroup(u UserID) bool
	// Followers returns the current number of followers of u.
	Followers(u UserID) int
	// Users returns the number of registered users.
	Users() int
}
