package detect

// Two-level failure detection. Options.GroupSize g partitions the
// membership into member.Topology's checkpoint groups, and the detector
// runs over them:
//
//   - Contact leases and lease pings stay inside the group — the per-rank
//     steady-state send rate is O(g), not O(world).
//   - Each group has a runtime delegate: its lowest live, non-suspected
//     member, computed locally by every rank from its own view (the
//     epoch-static designation is Topology.Delegate; the runtime rule skips
//     dead and suspected slots so a delegate's death promotes the next
//     member without an epoch). Delegates send periodic reports — the live
//     set of their group plus their per-group live counts — to the other
//     groups' delegates and to their own group. Reports are the cross-group
//     contact evidence: a group whose report goes stale past the lease is
//     suspected wholesale by the other delegates, which is how a
//     correlated whole-group loss (the cross-group parity shard's reason to
//     exist) is detected without any rank monitoring O(world) peers.
//   - Suspicion gossip fans out to the group plus the delegates —
//     O(g + world/g) targets per suspicion instead of O(world). Non-
//     delegates hold no cross-group suspicions at all: the exonerating
//     evidence (the victim group's reports) only reaches delegates, so a
//     non-delegate adopting cross-group gossip could never clear it.
//   - The epoch agreement relays through delegates: the coordinator sends
//     one propose with hops=1 per remote group to its delegate, the
//     delegate re-broadcasts it to the group and aggregates the group's
//     votes into a single cumulative ack back to the coordinator, and a
//     relay commit reaches each remote group's first live member, which
//     re-broadcasts it. Propose/ack traffic at the coordinator is
//     O(world/g + g) per round instead of O(world). Retransmission re-picks
//     delegates each tick, so a delegate dying mid-agreement only
//     redirects the relay.
//
// A flat world (GroupSize <= 1, or >= world) is the one-group case of the
// same code: the group is the whole ring, so leases, gossip and agreement
// all reach every member directly. The one guard is
// groupTickLocked's: with a single group there is no cross-group evidence
// to carry, so a one-group world sends no reports and emits no delegate
// role events.

import (
	"sort"
	"time"

	"c3/internal/member"
	"c3/internal/trace"
)

// aggKey identifies one relayed agreement a delegate aggregates votes for:
// coordinator origin's proposal (epoch, seq).
type aggKey struct {
	origin     int
	epoch, seq uint64
}

// retopoLocked recomputes the topology after a membership change and
// resets the per-group report freshness: every group starts with a fresh
// lease and its full non-dead strength, the same startup grace the
// per-rank contact leases get — evidence, not silence, must change it.
// Callers hold d.mu.
func (d *Detector) retopoLocked(now time.Time) {
	d.topo = member.NewTopology(d.members, d.groupSize)
	ng := d.topo.NumGroups()
	d.gHeard = make([]time.Time, ng)
	d.gCount = make([]int, ng)
	for gid := 0; gid < ng; gid++ {
		d.gHeard[gid] = now
		n := 0
		for _, r := range d.topo.GroupMembers(gid) {
			if !d.dead[r] {
				n++
			}
		}
		d.gCount[gid] = n
	}
}

// delegateOfLocked returns group gid's runtime delegate — its lowest
// member that is neither dead nor suspected in this rank's view — or -1
// when the whole group is down. Callers hold d.mu.
func (d *Detector) delegateOfLocked(gid int) int {
	for _, r := range d.topo.GroupMembers(gid) {
		if d.dead[r] {
			continue
		}
		if _, susp := d.suspected[r]; susp {
			continue
		}
		return r
	}
	return -1
}

// amDelegateLocked reports whether this rank is currently its own group's
// runtime delegate. Callers hold d.mu.
func (d *Detector) amDelegateLocked() bool {
	return d.delegateOfLocked(d.topo.GroupOf(d.self)) == d.self
}

// gossipTargetsLocked returns where suspicion (and drain) gossip goes: the
// live group plus the other groups' runtime delegates, leaving out the
// ranks in skip — the O(g + world/g) fan-out bound the two-level design
// rests on. Callers hold d.mu.
func (d *Detector) gossipTargetsLocked(skip []int) []int {
	skipSet := make(map[int]bool, len(skip))
	for _, s := range skip {
		skipSet[s] = true
	}
	seen := make(map[int]bool)
	var out []int
	add := func(r int) {
		if r < 0 || r == d.self || seen[r] || d.dead[r] || skipSet[r] {
			return
		}
		if _, susp := d.suspected[r]; susp {
			return
		}
		seen[r] = true
		out = append(out, r)
	}
	ownGid := d.topo.GroupOf(d.self)
	for _, r := range d.topo.GroupMembers(ownGid) {
		add(r)
	}
	for gid := 0; gid < d.topo.NumGroups(); gid++ {
		if gid != ownGid {
			add(d.delegateOfLocked(gid))
		}
	}
	sort.Ints(out)
	return out
}

// routeLocked picks the intermediate hop for a detector send: -1 for a
// direct send, or the destination group's runtime delegate when a relay is
// wired and the destination is a non-delegate outside this rank's group —
// keeping every rank's connection graph at O(g + world/g) peers. Callers
// hold d.mu.
func (d *Detector) routeLocked(to int) int {
	if d.relay == nil || !d.members.Contains(to) {
		return -1
	}
	gid := d.topo.GroupOf(to)
	if gid == d.topo.GroupOf(d.self) {
		return -1
	}
	via := d.delegateOfLocked(gid)
	if via < 0 || via == to || via == d.self {
		return -1
	}
	return via
}

// groupTickLocked runs the per-tick delegate duties: delegate-role
// transitions, whole-group staleness suspicion, and report emission. It
// returns the report payload and its targets (nil when no report is due
// this tick); the caller sends them after releasing d.mu, and appends the
// returned fresh suspicions to its gossip bookkeeping. A one-group world
// has no cross-group evidence to carry and skips all of it. Callers hold
// d.mu.
func (d *Detector) groupTickLocked(now time.Time) (report payload, targets []int, groupSuspects []int) {
	if d.topo.Flat() {
		return nil, nil, nil
	}
	amDel := d.amDelegateLocked()
	if amDel != d.wasDelegate {
		d.wasDelegate = amDel
		role := uint64(0)
		if amDel {
			role = 1
		}
		trace.Default().Emit(int32(d.self), trace.KindGroup, 0,
			uint64(d.topo.GroupOf(d.self))<<32|role)
	}
	if !amDel {
		return nil, nil, nil
	}
	ownGid := d.topo.GroupOf(d.self)
	ng := d.topo.NumGroups()
	// Whole-group suspicion: a remote group silent past the lease — no
	// report from any of its members — is suspected wholesale. Leases stay
	// inside a group, and its own group died with them, so report
	// staleness is the only evidence that covers its ranks.
	for gid := 0; gid < ng; gid++ {
		if gid == ownGid || now.Sub(d.gHeard[gid]) <= d.lease {
			continue
		}
		fresh := false
		for _, r := range d.topo.GroupMembers(gid) {
			if d.dead[r] {
				continue
			}
			if _, already := d.suspected[r]; already {
				continue
			}
			d.suspectLocked(r, now, CauseReport)
			groupSuspects = append(groupSuspects, r)
			fresh = true
		}
		if fresh {
			trace.Default().Emit(int32(d.self), trace.KindGroup, 0, uint64(gid)<<32|2)
		}
	}
	if now.Sub(d.lastReport) < d.lease/3 {
		return nil, nil, groupSuspects
	}
	d.lastReport = now
	// The report: this group's live set (positive cross-group evidence) and
	// the per-group live counts this delegate believes (the world view its
	// own group members fence against).
	var live []int
	for _, r := range d.topo.GroupMembers(ownGid) {
		if d.dead[r] {
			continue
		}
		if _, susp := d.suspected[r]; susp && r != d.self {
			continue
		}
		live = append(live, r)
	}
	groups := make([]int, ng)
	for gid := 0; gid < ng; gid++ {
		switch {
		case gid == ownGid:
			groups[gid] = len(live)
		case now.Sub(d.gHeard[gid]) <= d.lease:
			groups[gid] = d.gCount[gid]
		}
	}
	for _, r := range live {
		if r != d.self {
			targets = append(targets, r)
		}
	}
	for gid := 0; gid < ng; gid++ {
		if gid == ownGid {
			continue
		}
		via := d.delegateOfLocked(gid)
		if via < 0 {
			// Whole group suspected: fall back to its lowest non-dead member,
			// so a falsely-suspected (partitioned-off) group still receives
			// our reports — the positive contact evidence both sides need to
			// heal. A truly dead group just drops the frame.
			for _, r := range d.topo.GroupMembers(gid) {
				if !d.dead[r] {
					via = r
					break
				}
			}
		}
		if via >= 0 {
			targets = append(targets, via)
		}
	}
	return encodeReport(d.epoch, groups, live), targets, groupSuspects
}

// handleReport ingests a delegate report. A report from another group is
// that group's contact-lease renewal: its live list exonerates any of its
// members this rank still suspected (the group's own delegate has the best
// evidence about them). A report from this rank's own delegate carries the
// cross-group live counts a non-delegate cannot observe itself.
func (d *Detector) handleReport(from int, epoch uint64, groups, live []int) {
	now := d.clock()
	d.mu.Lock()
	if !d.members.Contains(from) {
		d.mu.Unlock()
		return
	}
	ng := d.topo.NumGroups()
	fromGid := d.topo.GroupOf(from)
	ownGid := d.topo.GroupOf(d.self)
	var cleared []int
	if fromGid != ownGid {
		d.gHeard[fromGid] = now
		d.gCount[fromGid] = len(live)
		for _, r := range live {
			if d.topo.GroupOf(r) != fromGid || d.dead[r] {
				continue
			}
			if _, susp := d.suspected[r]; susp {
				delete(d.suspected, r)
				cleared = append(cleared, r)
			}
		}
	} else if len(groups) == ng {
		// Our delegate's world view: adopt its fresh cross-group counts.
		for gid := 0; gid < ng; gid++ {
			if gid != ownGid && gid != fromGid && groups[gid] > 0 {
				d.gCount[gid] = groups[gid]
				d.gHeard[gid] = now
			}
		}
	}
	fence := d.refenceLocked()
	d.mu.Unlock()
	if fence != nil {
		fence()
	}
	for _, r := range cleared {
		d.logf("rank %d: suspicion of rank %d cleared by its group's report", d.self, r)
	}
	d.reconcileEpoch(from, epoch)
}
