// Package member makes the world size a runtime variable. A Set is an
// epoch-versioned view of the node slots currently participating in the
// world: the failure detector's agreement protocol stamps membership
// changes into epoch transitions, the stable store derives shard placement
// from the member ring, and the cluster runtime sizes quorums against the
// current membership instead of the launch-time world.
//
// Two ideas keep every layer honest:
//
//   - Members are identified by their launch-assigned slot rank, but all
//     ring math (successors, shard holders) runs over the member *ring* —
//     the sorted member list treated as a cycle. When the members are
//     exactly 0..n-1 the ring math reduces to the fixed-world formulas the
//     earlier layers were built on, so growing the world is a strict
//     generalization, not a migration.
//
//   - A Set is immutable. Deriving the next membership (WithJoined,
//     WithRemoved) returns a new value stamped with the epoch that commits
//     it, so concurrent readers never observe a half-applied change.
package member

import (
	"fmt"
	"sort"
	"strings"
)

// Set is one epoch's membership: the sorted set of live node slots. The
// zero value is an empty membership at epoch 0; real worlds start from
// Launch.
type Set struct {
	epoch   uint64
	members []int // sorted ascending, no duplicates; never aliased out
}

// Launch is the boot membership: slots 0..n-1 at epoch 1 (the failure
// detector's first epoch, before any agreement has run).
func Launch(n int) Set {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return Set{epoch: 1, members: m}
}

// New builds a membership from an explicit slot list (copied, sorted,
// deduplicated) at the given epoch.
func New(epoch uint64, members []int) Set {
	m := append([]int(nil), members...)
	sort.Ints(m)
	out := m[:0]
	for i, r := range m {
		if i > 0 && r == m[i-1] {
			continue
		}
		out = append(out, r)
	}
	return Set{epoch: epoch, members: out}
}

// Epoch returns the epoch that committed this membership.
func (s Set) Epoch() uint64 { return s.epoch }

// Size returns the number of members.
func (s Set) Size() int { return len(s.members) }

// Members returns the sorted member slots (a copy).
func (s Set) Members() []int {
	return append([]int(nil), s.members...)
}

// Contains reports whether slot r is a member.
func (s Set) Contains(r int) bool {
	_, ok := s.Index(r)
	return ok
}

// Index returns r's position in the sorted member ring.
func (s Set) Index(r int) (int, bool) {
	i := sort.SearchInts(s.members, r)
	if i < len(s.members) && s.members[i] == r {
		return i, true
	}
	return 0, false
}

// Quorum is the strict majority of the current membership — the vote
// count an epoch agreement needs. It generalizes the fixed-world n/2+1:
// after a committed grow or shrink, the majority is of the *new* world,
// so a fenced minority of the old world can never outvote it.
func (s Set) Quorum() int { return len(s.members)/2 + 1 }

// ringIndex maps a slot to a position on the member ring. Non-members map
// to their insertion point, so placement math stays total for slots that
// were members when a line committed but have since drained.
func (s Set) ringIndex(r int) int {
	if len(s.members) == 0 {
		return 0
	}
	i := sort.SearchInts(s.members, r)
	return i % len(s.members)
}

// ShardHolder places shard idx of owner's lines on the member ring: the
// k+m shards land on distinct ring successors starting after the owner,
// with the assignment rotated by the owner's ring position so parity
// shards cycle around the ring, and no member ever holds a shard of its
// own line. Rings smaller than shards+1 wrap (a successor holds several
// shards, with correspondingly reduced loss tolerance). With members
// 0..n-1 this is exactly the fixed-world formula
// (owner+1+((idx+owner)%shards%span))%n used since the codec PR, so
// committed lines keep their placement until the membership changes.
func (s Set) ShardHolder(owner, idx, shards int) int {
	n := len(s.members)
	if n == 0 {
		return owner
	}
	oi := s.ringIndex(owner)
	span := shards
	if span > n-1 {
		span = n - 1
	}
	if span <= 0 {
		return s.members[oi]
	}
	pos := (idx + oi) % shards % span
	return s.members[(oi+1+pos)%n]
}

// ShardPlan maps every shard index of one commit to its holder slot and
// returns the distinct holder set (ring order from the owner's successor).
func (s Set) ShardPlan(owner, shards int) (holderOf []int, holders []int) {
	holderOf = make([]int, shards)
	seen := make(map[int]bool, shards)
	for idx := 0; idx < shards; idx++ {
		h := s.ShardHolder(owner, idx, shards)
		holderOf[idx] = h
		if !seen[h] {
			seen[h] = true
			holders = append(holders, h)
		}
	}
	return holderOf, holders
}

// WithJoined derives the membership after the given slots join, stamped
// with the committing epoch. Joining an existing member is a no-op.
func (s Set) WithJoined(epoch uint64, ranks ...int) Set {
	m := append(append([]int(nil), s.members...), ranks...)
	n := New(epoch, m)
	return n
}

// WithRemoved derives the membership after the given slots leave (drain
// or permanent eviction), stamped with the committing epoch.
func (s Set) WithRemoved(epoch uint64, ranks ...int) Set {
	drop := make(map[int]bool, len(ranks))
	for _, r := range ranks {
		drop[r] = true
	}
	m := make([]int, 0, len(s.members))
	for _, r := range s.members {
		if !drop[r] {
			m = append(m, r)
		}
	}
	return Set{epoch: epoch, members: m}
}

// WithEpoch returns the same member set stamped with a different epoch —
// used when an epoch transition (a death) commits without changing who
// belongs to the world.
func (s Set) WithEpoch(epoch uint64) Set {
	return Set{epoch: epoch, members: s.members}
}

// SameMembers reports whether two sets contain the same slots, ignoring
// the epoch stamp.
func (s Set) SameMembers(o Set) bool {
	if len(s.members) != len(o.members) {
		return false
	}
	for i, r := range s.members {
		if o.members[i] != r {
			return false
		}
	}
	return true
}

// Equal reports whether two sets are identical, epoch included.
func (s Set) Equal(o Set) bool {
	return s.epoch == o.epoch && s.SameMembers(o)
}

// Max returns the highest member slot, or -1 for an empty set. The
// launcher sizes address tables to cover every member it may hear from.
func (s Set) Max() int {
	if len(s.members) == 0 {
		return -1
	}
	return s.members[len(s.members)-1]
}

// String renders the membership for logs: "epoch 3 members [0 1 2 5]".
func (s Set) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch %d members %v", s.epoch, s.members)
	return b.String()
}
