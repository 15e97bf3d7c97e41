package detect

// Two-level (grouped) failure detection. With Options.GroupSize g > 1 the
// detector replaces the flat O(world) heartbeat-and-lease mesh with the
// member.Topology's checkpoint groups:
//
//   - Heartbeats and phi monitors run on the intra-group ring (±1/±2 of the
//     group-local member set), and lease pings stay inside the group — the
//     per-rank steady-state send rate drops from O(world) to O(g).
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
//     one propose per remote group to its delegate, the delegate
//     re-broadcasts it to the group and aggregates the group's acks into a
//     single cumulative ack-agg back to the coordinator. Propose/ack
//     traffic at the coordinator is O(world/g + g) per round instead of
//     O(world). Retransmission re-picks delegates each tick, so a delegate
//     dying mid-agreement only redirects the relay.
//
// With GroupSize <= 1 (or >= world) the topology is flat and every code
// path below degenerates to the pre-grouping behavior.

import (
	"sort"
	"time"

	"c3/internal/member"
	"c3/internal/trace"
)

// aggKey identifies one relayed agreement a delegate aggregates acks for.
type aggKey struct {
	epoch uint64
	seq   uint64
}

// aggState is a delegate's cumulative ack collection for one relayed
// proposal: the coordinator it reports to and the group votes seen so far.
type aggState struct {
	origin int
	acked  map[int]bool
}

// groupedLocked reports whether two-level topology is active. Callers hold
// d.mu.
func (d *Detector) groupedLocked() bool {
	return !d.topo.Flat()
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

// monitorWantedLocked returns the ranks this rank phi-monitors: its two
// ring successors — on the group-local ring when grouped, the full member
// ring when flat. Callers hold d.mu.
func (d *Detector) monitorWantedLocked() []int {
	if d.groupedLocked() {
		return d.topo.GroupSuccessors(d.self, 2)
	}
	return d.members.Successors(d.self, 2)
}

// hbTargetsLocked returns the predecessors that monitor this rank (the
// heartbeat targets). Callers hold d.mu.
func (d *Detector) hbTargetsLocked() []int {
	if d.groupedLocked() {
		return d.topo.GroupPredecessors(d.self, 2)
	}
	return d.members.Predecessors(d.self, 2)
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
	return d.groupedLocked() && d.delegateOfLocked(d.topo.GroupOf(d.self)) == d.self
}

// gossipTargetsLocked returns where suspicion (and drain) gossip goes:
// every live member when flat; the live group plus the other groups'
// runtime delegates when grouped — the O(g + world/g) fan-out bound the
// two-level design rests on. Callers hold d.mu.
func (d *Detector) gossipTargetsLocked(skip []int) []int {
	if !d.groupedLocked() {
		return d.liveExceptLocked(skip)
	}
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
// direct send, or the destination group's runtime delegate when this world
// is grouped, a relay is wired, and the destination is a non-delegate
// outside this rank's group — keeping every rank's connection graph at
// O(g + world/g) peers. Callers hold d.mu.
func (d *Detector) routeLocked(to int) int {
	if d.relay == nil || !d.groupedLocked() || !d.members.Contains(to) {
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

// groupTickLocked runs the per-tick grouped-mode duties: delegate-role
// transitions, whole-group staleness suspicion, and report emission. It
// returns the report payload and its targets (nil when no report is due
// this tick); the caller sends them after releasing d.mu, and appends the
// returned fresh suspicions to its gossip bookkeeping. Callers hold d.mu.
func (d *Detector) groupTickLocked(now time.Time) (report payload, targets []int, groupSuspects []int) {
	if !d.groupedLocked() {
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
	// report from any of its members — is suspected wholesale. Its interior
	// ranks have no surviving monitors (their own group died with them), so
	// report staleness is the only evidence that covers them.
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
	if !d.groupedLocked() || !d.members.Contains(from) {
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

// handleProposeRly processes a delegate-relayed proposal. hops=1 means
// this rank is the relay: adopt, re-broadcast with hops=0 to the group,
// and start (or extend) the cumulative ack aggregate toward the
// coordinator. hops=0 means a fellow group member relayed it here: adopt
// and ack to the relaying delegate, which folds the vote into its
// aggregate.
func (d *Detector) handleProposeRly(from int, epoch, seq uint64, origin int, hops uint8, dead, members []int) {
	for _, r := range dead {
		if r == d.self {
			d.send(origin, encodePing(d.Epoch()))
			return
		}
	}
	if !d.adoptPropose(origin, epoch, dead, members) {
		return
	}
	if hops == 0 {
		d.send(from, encodeAck(epoch, seq))
		return
	}
	d.mu.Lock()
	var fwd []int
	if d.groupedLocked() {
		for _, r := range d.topo.GroupMembers(d.topo.GroupOf(d.self)) {
			if r == d.self || d.dead[r] {
				continue
			}
			if _, susp := d.suspected[r]; susp {
				continue
			}
			fwd = append(fwd, r)
		}
	}
	key := aggKey{epoch: epoch, seq: seq}
	agg := d.relayAgg[key]
	if agg == nil || agg.origin != origin {
		agg = &aggState{origin: origin, acked: make(map[int]bool)}
		d.relayAgg[key] = agg
	}
	agg.acked[d.self] = true
	ranks := setToSlice(agg.acked)
	d.mu.Unlock()
	msg := encodeProposeRly(epoch, seq, origin, 0, dead, members)
	for _, t := range fwd {
		d.send(t, msg)
	}
	d.send(origin, encodeAckAgg(epoch, seq, ranks))
}

// handleAckAgg folds a delegate's cumulative group votes into the
// coordinator's in-flight proposal.
func (d *Detector) handleAckAgg(from int, epoch, seq uint64, ranks []int) {
	d.mu.Lock()
	p := d.prop
	if p == nil || p.epoch != epoch || p.seq != seq {
		d.mu.Unlock()
		return
	}
	for _, r := range ranks {
		if p.pending[r] {
			delete(p.pending, r)
			p.acked[r] = true
		}
	}
	ready := 1+len(p.acked) >= d.quorum()
	d.mu.Unlock()
	if ready {
		d.commitProposal(p)
	}
}

// handleCommitRly applies a relayed commit and re-broadcasts it to this
// rank's group under the membership the commit installs. Forwarding only
// happens when the commit actually advanced this rank's epoch — an already
// known epoch means the group has been (or is being) told already.
func (d *Detector) handleCommitRly(from int, epoch uint64, dead, members []int) {
	if epoch <= d.Epoch() {
		return
	}
	d.applyEpoch(epoch, dead, members, "relayed commit")
	d.mu.Lock()
	if d.epoch != epoch || !d.groupedLocked() {
		d.mu.Unlock()
		return
	}
	var fwd []int
	for _, r := range d.topo.GroupMembers(d.topo.GroupOf(d.self)) {
		if r != d.self && !d.dead[r] {
			fwd = append(fwd, r)
		}
	}
	d.mu.Unlock()
	msg := encodeCommit(epoch, dead, members)
	for _, t := range fwd {
		d.send(t, msg)
	}
}
