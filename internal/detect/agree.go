package detect

// Epoch agreement: the coordinator's two-phase propose/ack/commit, its
// retransmission and commit fan-out (through group delegates across
// groups, see group.go), the voter's side of each phase, and the
// installation of a committed epoch.

import (
	"fmt"
	"sort"
	"time"

	"c3/internal/member"
	"c3/internal/trace"
)

// proposal is the coordinator's in-flight two-phase agreement. It commits
// only once the coordinator's own vote plus the collected acks reach a
// strict majority of the current membership — a coordinator that cannot
// reach quorum (it sits on the minority side of a partition) stalls
// instead of committing, so two sides of a split can never fork the epoch
// sequence (the PBFT-style view-change discipline). Besides the dead set
// a proposal carries the member list the new epoch installs, so grows and
// shrinks commit through exactly the same two-phase path as deaths.
type proposal struct {
	epoch   uint64
	seq     uint64
	dead    []int        // full proposed dead set, sorted
	members []int        // proposed member list, sorted
	pending map[int]bool // participants that have not acked yet
	acked   map[int]bool // participants whose ack arrived
	sp      trace.Span   // agree span: proposal creation -> local commit
}

// quorum is the number of votes an epoch commit needs: a strict majority
// of the current membership (not of the current survivors — otherwise two
// partition sides could each reach "majority of who I can see"). After a
// committed grow or shrink the majority is of the new member set, which
// is what makes resize safe against partitions: the old world's minority
// can never outvote the committed configuration. Callers hold d.mu.
func (d *Detector) quorum() int {
	return d.members.Quorum()
}

// dropProposalLocked abandons the in-flight proposal (if any), closing
// its agree span as uncommitted. Callers hold d.mu.
func (d *Detector) dropProposalLocked() {
	if d.prop != nil {
		d.prop.sp.End(0)
		d.prop = nil
	}
}

// driveProposal runs the coordinator's side of the agreement: start or
// rebuild the proposal when the candidate dead set or member list
// changes, retransmit to laggards, and commit once the votes (the
// coordinator's own plus the acks) reach a strict majority of the current
// membership. A proposal folds in everything outstanding: suspected
// deaths, pending joins, and pending drains all commit through the same
// epoch transition. Laggards that have not acked by then learn the result
// from the commit broadcast or a later state exchange.
func (d *Detector) driveProposal() {
	d.mu.Lock()
	if !d.members.Contains(d.self) {
		d.dropProposalLocked()
		d.mu.Unlock()
		return
	}
	// Pending membership changes that still mean something: joins of slots
	// not yet members, drains of slots still members.
	joins := make([]int, 0, len(d.pendingJoin))
	for r := range d.pendingJoin {
		if !d.members.Contains(r) {
			joins = append(joins, r)
		}
	}
	leaves := make([]int, 0, len(d.pendingLeave))
	for r := range d.pendingLeave {
		if d.members.Contains(r) {
			leaves = append(leaves, r)
		}
	}
	if len(d.suspected) == 0 && len(joins) == 0 && len(leaves) == 0 {
		d.dropProposalLocked()
		d.mu.Unlock()
		return
	}
	cand := make(map[int]bool, len(d.dead)+len(d.suspected))
	for r := range d.dead {
		cand[r] = true
	}
	for r := range d.suspected {
		cand[r] = true
	}
	// Coordinator: the lowest member that is neither dead nor suspected.
	coord := -1
	for _, r := range d.members.Members() {
		if !cand[r] {
			coord = r
			break
		}
	}
	if coord != d.self {
		d.dropProposalLocked() // not ours to drive (anymore)
		d.mu.Unlock()
		return
	}
	next := d.members.WithJoined(d.epoch+1, joins...).WithRemoved(d.epoch+1, leaves...)
	memberList := next.Members()
	// The dead set the new epoch carries: dead/suspected slots that remain
	// members (a drained slot leaves the dead set with its membership).
	deadSet := make([]int, 0, len(cand))
	for r := range cand {
		if next.Contains(r) {
			deadSet = append(deadSet, r)
		}
	}
	sort.Ints(deadSet)
	if d.prop == nil || !equalInts(d.prop.dead, deadSet) || !equalInts(d.prop.members, memberList) {
		d.propSeq++
		// Votes come from the current configuration: every current member
		// that is not a death candidate. Joining slots do not vote — they
		// are not members until this very proposal commits.
		pending := make(map[int]bool)
		for _, r := range d.members.Members() {
			if r != d.self && !cand[r] {
				pending[r] = true
			}
		}
		if d.prop != nil {
			d.prop.sp.End(0) // superseded before committing
		}
		d.prop = &proposal{epoch: d.epoch + 1, seq: d.propSeq, dead: deadSet,
			members: memberList, pending: pending, acked: make(map[int]bool),
			sp: trace.Default().Begin(int32(d.self), trace.KindAgree, 0, d.epoch+1)}
		d.logf("rank %d: proposing epoch %d dead=%v members=%v to %d survivors (seq %d)",
			d.self, d.prop.epoch, deadSet, memberList, len(pending), d.propSeq)
	}
	p := d.prop
	if 1+len(p.acked) >= d.quorum() {
		d.mu.Unlock()
		d.commitProposal(p)
		return
	}
	if len(p.pending) == 0 {
		// Everyone this coordinator can reach has acked, yet the votes fall
		// short of a strict majority of the membership: it is on the
		// minority side of a partition. Stall — committing here would fork
		// the epoch sequence against a majority-side commit.
		d.mu.Unlock()
		return
	}
	// Retransmission targets: own-group voters directly, every remote group
	// through one relayed propose to its runtime delegate — O(g + world/g)
	// frames per round instead of O(world). driveProposal runs every tick,
	// so a delegate dying mid-agreement just redirects the next round's
	// relay to the group's new runtime delegate.
	var direct []int
	relayVias := make(map[int]bool)
	ownGid := d.topo.GroupOf(d.self)
	for r := range p.pending {
		gid := d.topo.GroupOf(r)
		via := d.delegateOfLocked(gid)
		if gid == ownGid || via < 0 || via == d.self {
			direct = append(direct, r)
			continue
		}
		relayVias[via] = true
	}
	d.mu.Unlock()
	msg := encodePropose(p.epoch, p.seq, d.self, 0, p.dead, p.members)
	for _, t := range direct {
		d.send(t, msg)
	}
	rly := encodePropose(p.epoch, p.seq, d.self, 1, p.dead, p.members)
	for _, via := range setToSlice(relayVias) {
		d.send(via, rly)
	}
}

// commitProposal finalizes an agreement: broadcast the commit and apply it
// locally. The broadcast covers the union of the old and new member sets,
// so a freshly admitted slot learns of its own admission and a drained
// slot learns it is out. Under the topology the commit installs, this
// rank's group and the slots leaving the membership get direct commits;
// each remote group gets one relay commit, addressed to its lowest
// not-dead member (which re-broadcasts it group-locally, see
// handleCommit). A dropped relay heals through the report/ping epoch
// reconciliation.
func (d *Detector) commitProposal(p *proposal) {
	d.mu.Lock()
	targets := make(map[int]bool, len(p.members)+d.members.Size())
	for _, r := range d.members.Members() {
		targets[r] = true
	}
	d.mu.Unlock()
	for _, r := range p.members {
		targets[r] = true
	}
	deadSet := make(map[int]bool, len(p.dead))
	for _, dr := range p.dead {
		delete(targets, dr)
		deadSet[dr] = true
	}
	delete(targets, d.self)
	next := member.NewTopology(member.New(p.epoch, p.members), d.groupSize)
	ownGid := next.GroupOf(d.self)
	var direct []int
	vias := make(map[int]bool)
	for _, r := range setToSlice(targets) {
		if !next.Set().Contains(r) || next.GroupOf(r) == ownGid {
			direct = append(direct, r)
			continue
		}
		via := -1
		for _, m := range next.GroupMembers(next.GroupOf(r)) {
			if !deadSet[m] {
				via = m
				break
			}
		}
		if via < 0 {
			direct = append(direct, r)
			continue
		}
		vias[via] = true
	}
	msg := encodeCommit(p.epoch, false, p.dead, p.members)
	for _, r := range direct {
		d.send(r, msg)
	}
	rly := encodeCommit(p.epoch, true, p.dead, p.members)
	for _, via := range setToSlice(vias) {
		d.send(via, rly)
	}
	d.applyEpoch(p.epoch, p.dead, p.members, "agreement")
}

// applyEpoch installs a committed epoch transition (from our own agreement,
// a peer's commit, or a state snapshot) — the new membership, the dead set
// — re-derives the group topology for the new member set, and fires OnEpoch
// (or OnDrained/OnEvicted when the transition removes this very rank). It
// reports whether the epoch was new here.
func (d *Detector) applyEpoch(epoch uint64, dead, members []int, via string) bool {
	now := d.clock()
	d.mu.Lock()
	if epoch <= d.epoch {
		d.mu.Unlock()
		return false
	}
	newMembers := member.New(epoch, members)
	if newMembers.Size() == 0 {
		// Defensive: a commit with no member list keeps the current ring.
		newMembers = d.members.WithEpoch(epoch)
	}
	wasMember := d.members.Contains(d.self)
	isMember := newMembers.Contains(d.self)
	membersChanged := !equalInts(d.members.Members(), newMembers.Members())
	var newDead []int
	selfDead := false
	newSet := make(map[int]bool, len(dead))
	for _, r := range dead {
		if r == d.self {
			selfDead = true
		}
		if !newMembers.Contains(r) {
			continue // removed slots leave the dead set with their membership
		}
		newSet[r] = true
		if !d.dead[r] {
			newDead = append(newDead, r)
		}
	}
	// Slots entering the ring start with a fresh contact lease, so a grow
	// cannot fence or lease-suspect the newcomer before its first ping.
	for _, r := range newMembers.Members() {
		if !d.members.Contains(r) && r >= 0 && r < d.n {
			d.lastHeard[r] = now
		}
	}
	d.epoch = epoch
	d.members = newMembers
	close(d.changed)
	d.changed = make(chan struct{})
	if membersChanged {
		d.memberEpoch = epoch
	}
	d.dead = newSet
	d.detections += uint64(len(newDead))
	for r := range d.suspected {
		if newSet[r] || !newMembers.Contains(r) {
			delete(d.suspected, r)
		}
	}
	for r := range d.pendingJoin {
		if newMembers.Contains(r) {
			delete(d.pendingJoin, r)
		}
	}
	for r := range d.pendingLeave {
		if !newMembers.Contains(r) {
			delete(d.pendingLeave, r)
		}
	}
	// Re-derive the two-level topology for the new membership and reset the
	// per-group report leases; delegate vote aggregates for epochs at or
	// below the committed one are settled.
	d.retopoLocked(now)
	for k := range d.relayAgg {
		if k.epoch <= epoch {
			delete(d.relayAgg, k)
		}
	}
	if d.prop != nil {
		d.prop.sp.End(epoch) // this coordinator's agreement committed
		d.prop = nil
	}
	d.times = Times{SuspectAt: d.pendSuspect, AgreeAt: now, Cause: d.pendCause}
	rec := trace.Default()
	rec.Emit(int32(d.self), trace.KindEpoch, 0, epoch)
	if !d.pendSuspect.IsZero() {
		// Detection latency (first local suspicion -> committed epoch) feeds
		// the epoch kind's histogram: ops exposes it as c3_detection_seconds.
		rec.Observe(trace.KindEpoch, now.Sub(d.pendSuspect))
	}
	if membersChanged {
		rec.Emit(int32(d.self), trace.KindMember, 0, epoch)
	}
	d.pendSuspect, d.pendCause = time.Time{}, CauseNone
	sort.Ints(newDead)
	allDead := setToSlice(newSet)
	onEpoch, onEvicted, onDrained := d.opts.OnEpoch, d.opts.OnEvicted, d.opts.OnDrained
	fence := d.refenceLocked()
	d.mu.Unlock()
	if fence != nil {
		fence() // fencing state first, so epoch callbacks see it settled
	}

	d.logf("rank %d: epoch %d committed via %s, members=%v dead=%v (new %v)",
		d.self, epoch, via, newMembers.Members(), allDead, newDead)
	if wasMember && !isMember {
		d.logf("rank %d: drained out of the membership by epoch %d", d.self, epoch)
		if onDrained != nil {
			onDrained(epoch)
		}
		return true
	}
	if selfDead {
		d.logf("rank %d: DECLARED DEAD by epoch %d while alive", d.self, epoch)
		if onEvicted != nil {
			onEvicted(epoch)
		}
		return true
	}
	if onEpoch != nil {
		onEpoch(epoch, newMembers, allDead, newDead)
	}
	return true
}

// reconcileEpoch compares a peer's advertised epoch with ours and heals a
// divergence: a lagging peer gets our state, and if we lag we ask for
// theirs. A same-epoch peer we hold dead gets our state as well: if it is
// alive it answers with hello, which marks it alive again.
func (d *Detector) reconcileEpoch(from int, peerEpoch uint64) {
	d.mu.Lock()
	cur := d.epoch
	heldDead := d.dead[from]
	dead := setToSlice(d.dead)
	members := d.members.Members()
	d.mu.Unlock()
	switch {
	case peerEpoch < cur, peerEpoch == cur && heldDead:
		d.send(from, encodeState(cur, dead, members))
	case peerEpoch > cur:
		d.send(from, encodeHello())
	}
}

// handlePropose votes on a proposal. hops=0 asks for this rank's own
// vote, sent back to whoever forwarded the proposal: the coordinator
// itself, or the delegate that relayed it. hops=1 makes this rank the relay
// for its group: it votes, re-broadcasts the proposal with hops=0 to the
// live group, and starts (or extends) the cumulative aggregate of the
// group's votes toward the coordinator.
func (d *Detector) handlePropose(from int, epoch, seq uint64, origin int, hops uint8, dead, members []int) {
	for _, r := range dead {
		if r == d.self {
			// Proposed dead while alive: protest instead of acking; the
			// coordinator clears the suspicion when the ping arrives.
			d.send(origin, encodePing(d.Epoch()))
			return
		}
	}
	if !d.adoptPropose(origin, epoch, dead, members) {
		return
	}
	if hops == 0 {
		d.send(from, encodeAck(epoch, seq, origin, []int{d.self}))
		return
	}
	d.mu.Lock()
	var fwd []int
	for _, r := range d.topo.GroupMembers(d.topo.GroupOf(d.self)) {
		if r == d.self || d.dead[r] {
			continue
		}
		if _, susp := d.suspected[r]; susp {
			continue
		}
		fwd = append(fwd, r)
	}
	key := aggKey{origin: origin, epoch: epoch, seq: seq}
	agg := d.relayAgg[key]
	if agg == nil {
		agg = make(map[int]bool)
		d.relayAgg[key] = agg
	}
	agg[d.self] = true
	ranks := setToSlice(agg)
	d.mu.Unlock()
	msg := encodePropose(epoch, seq, origin, 0, dead, members)
	for _, t := range fwd {
		d.send(t, msg)
	}
	d.send(origin, encodeAck(epoch, seq, origin, ranks))
}

// adoptPropose validates a proposal against the local epoch and, when it is
// the expected next epoch, adopts its suspicions and pending membership
// changes so our own coordinator logic (should the proposer die
// mid-agreement) starts from the same dead set and member list. On a
// mismatch the reconciliation reply (state or hello) goes to origin — the
// coordinator — whether the proposal arrived directly or through a
// delegate relay. A proposal that declares dead a rank this rank does not
// suspect but has recently heard from is withheld, not acked: the
// coordinator retransmits every tick, by when the evidence has either
// aged out or turned into a suspicion of our own. It reports whether the
// proposal is ack-worthy.
func (d *Detector) adoptPropose(origin int, epoch uint64, dead, members []int) bool {
	d.mu.Lock()
	cur := d.epoch
	if epoch != cur+1 {
		deadNow, membersNow := setToSlice(d.dead), d.members.Members()
		d.mu.Unlock()
		if epoch <= cur {
			d.send(origin, encodeState(cur, deadNow, membersNow)) // proposer lags a commit
		} else {
			d.send(origin, encodeHello()) // we lag; fetch the peer's state
		}
		return false
	}
	now := d.clock()
	var fresh []int
	for _, r := range dead {
		if d.dead[r] || !d.members.Contains(r) {
			continue
		}
		if _, susp := d.suspected[r]; !susp {
			if d.contradictedLocked(r, now) {
				d.mu.Unlock()
				return false
			}
			fresh = append(fresh, r)
		}
	}
	for _, r := range fresh {
		d.suspectLocked(r, now, CauseNone)
	}
	proposed := member.New(epoch, members)
	for _, r := range proposed.Members() {
		if !d.members.Contains(r) {
			d.pendingJoin[r] = true
		}
	}
	for _, r := range d.members.Members() {
		if !proposed.Contains(r) {
			d.pendingLeave[r] = true
		}
	}
	fence := d.refenceLocked()
	d.mu.Unlock()
	if fence != nil {
		fence()
	}
	return true
}

// handleAck counts votes for origin's proposal (epoch, seq). When origin
// is this rank they go toward its in-flight proposal; otherwise this rank
// relayed that proposal, so they join the aggregate kept for it and the
// cumulative set goes on to origin. A vote meant for any other proposal
// counts nowhere.
func (d *Detector) handleAck(epoch, seq uint64, origin int, ranks []int) {
	d.mu.Lock()
	if origin == d.self {
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
		return
	}
	agg := d.relayAgg[aggKey{origin: origin, epoch: epoch, seq: seq}]
	grew := false
	for _, r := range ranks {
		if agg != nil && !agg[r] {
			agg[r] = true
			grew = true
		}
	}
	if !grew {
		d.mu.Unlock()
		return
	}
	out := setToSlice(agg)
	d.mu.Unlock()
	d.send(origin, encodeAck(epoch, seq, origin, out))
}

// handleCommit applies a committed epoch. A relay commit is also
// re-broadcast to this rank's group under the membership it installs, but
// only when it advanced this rank's epoch — an already known epoch means
// the group has been (or is being) told already.
func (d *Detector) handleCommit(from int, epoch uint64, relay bool, dead, members []int) {
	via := "commit"
	if relay {
		via = "relayed commit"
	}
	if !d.applyEpoch(epoch, dead, members, fmt.Sprintf("%s from rank %d", via, from)) || !relay {
		return
	}
	d.mu.Lock()
	var fwd []int
	for _, r := range d.topo.GroupMembers(d.topo.GroupOf(d.self)) {
		if r != d.self && !d.dead[r] {
			fwd = append(fwd, r)
		}
	}
	d.mu.Unlock()
	msg := encodeCommit(epoch, false, dead, members)
	for _, t := range fwd {
		d.send(t, msg)
	}
}
