// Two-level topology: checkpoint groups over the member ring.
//
// A flat +1/+2 ring stops scaling around dozens of ranks: shard placement,
// heartbeats, gossip, and agreement all touch O(world) peers. A Topology
// partitions the member ring into contiguous groups of (at most) g slots.
// Redundancy, heartbeats, and gossip stay inside the group (O(g)), and one
// delegate per group carries cross-group traffic (O(world/g)), following
// the two-level scheme of Kohl et al. (arXiv:1708.08286).
//
// The assignment function is deterministic in (member set, g): ring
// position p belongs to group p/g. Because a Topology is derived from an
// immutable epoch-stamped Set, group assignment is versioned by the same
// epoch sequence as membership itself — a resize or death re-partitions
// the groups exactly when the new membership lands, which the stable
// store already pins to a recovery line.
//
// Degeneration is a design requirement, not an accident: with g <= 1 (or
// g >= world) there is a single group and every group-relative formula
// reduces to the flat-world formula it replaced, so a Topology with
// grouping disabled is bit-for-bit the pre-topology behavior.

package member

import "fmt"

// Topology is an epoch-versioned partition of a member Set into
// contiguous checkpoint groups. The zero value is a flat (single-group)
// view of an empty membership. Like Set, a Topology is immutable.
type Topology struct {
	set   Set
	group int // configured group size g; <=0 disables grouping (flat)
}

// NewTopology partitions s into groups of at most groupSize consecutive
// ring slots. groupSize <= 1 (or >= the member count) yields the flat
// single-group topology — a size-1 group would have no local redundancy.
func NewTopology(s Set, groupSize int) Topology {
	return Topology{set: s, group: groupSize}
}

// Set returns the underlying membership.
func (t Topology) Set() Set { return t.set }

// Epoch returns the epoch that committed the underlying membership (and
// therefore this group assignment).
func (t Topology) Epoch() uint64 { return t.set.Epoch() }

// GroupSize returns the configured group size g (0 when grouping is
// disabled). The last group may be smaller when g does not divide the
// member count.
func (t Topology) GroupSize() int {
	if t.group <= 0 {
		return 0
	}
	return t.group
}

// Flat reports whether this topology has a single group — either because
// grouping is disabled (g <= 0) or because the world fits in one group.
func (t Topology) Flat() bool { return t.NumGroups() <= 1 }

// NumGroups returns the number of groups (ceil(members/g); at least 1
// for a non-empty membership).
func (t Topology) NumGroups() int {
	n := t.set.Size()
	if n == 0 {
		return 0
	}
	if t.group <= 1 || t.group >= n {
		return 1
	}
	return (n + t.group - 1) / t.group
}

// GroupOf returns the group id of slot r: ring position / g. Non-members
// map through their insertion point, so the function stays total for
// slots that drained after a line committed.
func (t Topology) GroupOf(r int) int {
	if t.Flat() {
		return 0
	}
	return t.set.ringIndex(r) / t.group
}

// groupBounds returns the [lo, hi) ring-position window of group gid.
func (t Topology) groupBounds(gid int) (lo, hi int) {
	n := t.set.Size()
	if t.Flat() {
		return 0, n
	}
	lo = gid * t.group
	hi = lo + t.group
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// GroupMembers returns the sorted member slots of group gid (a copy).
func (t Topology) GroupMembers(gid int) []int {
	lo, hi := t.groupBounds(gid)
	if lo >= hi {
		return nil
	}
	return append([]int(nil), t.set.members[lo:hi]...)
}

// GroupSet returns group gid's members as a Set stamped with the same
// epoch, so the existing ring formulas (ShardPlan) run
// unchanged over the group-local ring.
func (t Topology) GroupSet(gid int) Set {
	lo, hi := t.groupBounds(gid)
	return Set{epoch: t.set.epoch, members: t.set.members[lo:hi]}
}

// GroupSetOf returns the group-local Set of the group containing r.
func (t Topology) GroupSetOf(r int) Set {
	return t.GroupSet(t.GroupOf(r))
}

// Delegate returns the designated delegate of group gid: its lowest
// member slot. The failure detector skips dead or suspected slots at
// runtime (see detect); this is the epoch-static designation every node
// computes identically from the topology alone.
func (t Topology) Delegate(gid int) int {
	lo, hi := t.groupBounds(gid)
	if lo >= hi {
		return -1
	}
	return t.set.members[lo]
}

// Delegates returns the designated delegate of every group, in group
// order.
func (t Topology) Delegates() []int {
	ng := t.NumGroups()
	out := make([]int, 0, ng)
	for gid := 0; gid < ng; gid++ {
		out = append(out, t.Delegate(gid))
	}
	return out
}

// ParityHolder returns the member that holds owner's cross-group parity
// shard: the slot at owner's within-group position in the *next* group
// (wrapping by that group's size), so parity load spreads across the
// neighbor group instead of piling onto its delegate. Returns -1 when
// the topology has fewer than two groups — with nowhere outside the
// group to put it, a cross-group shard adds no failure independence.
func (t Topology) ParityHolder(owner int) int {
	ng := t.NumGroups()
	if ng < 2 {
		return -1
	}
	gid := t.GroupOf(owner)
	lo, _ := t.groupBounds(gid)
	pos := t.set.ringIndex(owner) - lo
	hlo, hhi := t.groupBounds((gid + 1) % ng)
	if hlo >= hhi {
		return -1
	}
	return t.set.members[hlo+pos%(hhi-hlo)]
}

// SameGroups reports whether two topologies assign every slot to the
// same groups (epoch stamps ignored).
func (t Topology) SameGroups(o Topology) bool {
	if !t.set.SameMembers(o.set) {
		return false
	}
	tg, og := t.GroupSize(), o.GroupSize()
	if tg == og {
		return true
	}
	// Different configured sizes can still collapse to the same flat view.
	return t.Flat() && o.Flat()
}

// String renders the topology for logs:
// "epoch 3 groups 2x4 [[0 1 2 3] [4 5 6 7]]".
func (t Topology) String() string {
	ng := t.NumGroups()
	groups := make([][]int, 0, ng)
	for gid := 0; gid < ng; gid++ {
		groups = append(groups, t.GroupMembers(gid))
	}
	return fmt.Sprintf("epoch %d groups %dx%d %v", t.set.epoch, ng, t.GroupSize(), groups)
}
