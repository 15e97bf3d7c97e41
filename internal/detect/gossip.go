package detect

// Liveness inputs and suspicion: the transport observers, the per-tick
// heartbeats, lease pings, monitor and lease evaluation, suspicion gossip,
// and the contact-lease fencing rule.

import (
	"sort"
	"time"

	"c3/internal/trace"
	"c3/internal/transport"
)

// refenceLocked recomputes the fencing state from the contact leases and
// returns the OnFence callback to fire (nil if no transition). A peer
// counts as reachable only on positive receive evidence within the lease —
// suspicion alone cannot drive fencing, because the ring monitors of a
// small minority never cover the whole far side of a split. Callers hold
// d.mu and must invoke the returned func, if any, after releasing it.
func (d *Detector) refenceLocked() func() {
	now := d.clock()
	live := 0
	if d.members.Contains(d.self) {
		live++ // self
	}
	// Lease pings stay inside the group: direct contact evidence covers the
	// group, and the rest of the world counts through the per-group report
	// lease — a remote group whose report is fresh contributes its reported
	// live strength.
	ownGid := d.topo.GroupOf(d.self)
	for _, r := range d.topo.GroupMembers(ownGid) {
		if r == d.self || d.dead[r] {
			continue
		}
		if now.Sub(d.lastHeard[r]) <= d.lease {
			live++
		}
	}
	for gid := 0; gid < d.topo.NumGroups(); gid++ {
		if gid != ownGid && now.Sub(d.gHeard[gid]) <= d.lease {
			live += d.gCount[gid]
		}
	}
	size, quorum := d.members.Size(), d.quorum()
	fenced := live < quorum
	if fenced == d.fenced {
		return nil
	}
	d.fenced = fenced
	cb := d.opts.OnFence
	return func() {
		d.logf("rank %d: fencing -> %v (live view %d of %d members, quorum %d)",
			d.self, fenced, live, size, quorum)
		arg := uint64(0)
		if fenced {
			arg = 1
		}
		trace.Default().Emit(int32(d.self), trace.KindFence, 0, arg)
		if cb != nil {
			cb(fenced)
		}
	}
}

// ObserveVia makes dm's observers the detector's liveness input: every
// frame on any plane of the shared mesh (ObserveRecv), every send
// (ObserveSend), and every loss report (ObserveLost). The receive loop
// then leaves detector frames unobserved, so liveness is observed in one
// place, in arrival order: a frame that a lost connection delivered before
// its end is counted before the loss report and can never clear the
// suspicion that report raises. Call before dm.Start and Start.
func (d *Detector) ObserveVia(dm *transport.Demux) {
	d.viaDemux = true
	dm.SetObservers(d.ObserveRecv, d.ObserveSend, d.ObserveLost)
}

// ObserveLost records a loss report: the transport saw rank r's connection
// end without a goodbye and confirmed r's process gone. The suspicion is
// raised, gossiped and proposed at once instead of at the next tick, and
// the gossip also goes to r, so a live r protests. It stays a hint: a live
// r's traffic clears it, and ranks that have heard from r recently neither
// adopt it nor vote for it (contradictedLocked). Loss reports follow the
// gossip adoption rule: a non-delegate ignores a rank of another group,
// and a delegate adopts it.
func (d *Detector) ObserveLost(r int) {
	if r == d.self || r < 0 || r >= d.n {
		return
	}
	d.mu.Lock()
	_, already := d.suspected[r]
	if already || d.dead[r] || !d.members.Contains(r) || !d.members.Contains(d.self) || d.crossGroupLocked(r) {
		d.mu.Unlock()
		return
	}
	d.suspectLocked(r, d.clock(), CauseLoss)
	epoch := d.epoch
	targets := append(d.gossipTargetsLocked(nil), r)
	d.mu.Unlock()
	d.logf("rank %d: suspects rank %d dead (connection lost)", d.self, r)
	g := encodeSuspect(epoch, r, CauseLoss)
	for _, t := range targets {
		d.send(t, g)
	}
	d.driveProposal()
}

// crossGroupLocked reports whether r's suspicion is not this rank's to
// hold: a non-delegate holds no suspicions of ranks in other groups,
// because the clearing evidence (the target group's reports) only reaches
// delegates. Callers hold d.mu.
func (d *Detector) crossGroupLocked(r int) bool {
	return d.topo.GroupOf(r) != d.topo.GroupOf(d.self) && !d.amDelegateLocked()
}

// contradictedLocked reports whether this rank has heard from r within
// half a contact lease, a window every live member's lease pings keep
// filled. Such a rank neither adopts another rank's suspicion of r nor
// acks a proposal that declares r dead; its own detection paths may still
// suspect r. Callers hold d.mu.
func (d *Detector) contradictedLocked(r int, now time.Time) bool {
	return now.Sub(d.lastHeard[r]) < d.lease/2
}

// ObserveRecv records liveness evidence: a message from peer `from` arrived
// on any plane of the shared mesh. The demux calls this for every inbound
// message, so replication traffic doubles as heartbeats.
func (d *Detector) ObserveRecv(from int) {
	if from == d.self || from < 0 || from >= d.n {
		return
	}
	now := d.clock()
	d.mu.Lock()
	d.lastHeard[from] = now
	// Direct contact from a remote group (a protest ping, a relay hop's
	// agreement traffic) renews that group's report lease: any member
	// speaking proves the group is not wholesale dead.
	if gid := d.topo.GroupOf(from); gid != d.topo.GroupOf(d.self) && gid < len(d.gHeard) {
		d.gHeard[gid] = now
	}
	if m := d.monitors[from]; m != nil {
		m.Observe(now)
	}
	_, wasSuspected := d.suspected[from]
	if wasSuspected && !d.dead[from] {
		// The peer spoke: the suspicion was false. Clearing it here (and
		// re-observing) makes the coordinator rebuild any in-flight proposal
		// without the recovered rank.
		delete(d.suspected, from)
	}
	fence := d.refenceLocked()
	d.mu.Unlock()
	if fence != nil {
		fence()
	}
	if wasSuspected {
		d.logf("rank %d: false suspicion of rank %d cleared by traffic", d.self, from)
	}
}

// ObserveSend records outbound traffic toward a peer, letting the emitter
// skip the next explicit ping (heartbeat piggybacking).
func (d *Detector) ObserveSend(to int) {
	if to == d.self {
		return
	}
	now := d.clock()
	d.mu.Lock()
	d.lastSent[to] = now
	d.mu.Unlock()
}

// --- Ticker: heartbeats, monitor evaluation, proposal driving ---

func (d *Detector) tickLoop() {
	defer d.wg.Done()
	ticker := time.NewTicker(d.interval)
	defer ticker.Stop()
	for {
		select {
		case <-d.done:
			return
		case <-ticker.C:
			d.tick()
		}
	}
}

func (d *Detector) tick() {
	now := d.clock()

	d.mu.Lock()
	if !d.members.Contains(d.self) {
		// Not (yet, or no longer) a member: no heartbeats, no suspicions,
		// no proposals. A joining slot only listens and hellos (JoinNew);
		// a drained slot is on its way out.
		d.mu.Unlock()
		return
	}
	epoch := d.epoch
	// Heartbeats to the predecessors that monitor this rank (every
	// interval), and low-rate lease pings to every other live group member
	// so the group keeps receiving positive contact evidence for the
	// fencing rule. Both are skipped when other traffic already reached the
	// peer within the window (piggybacking). Both stay inside the group —
	// cross-group liveness travels in delegate reports instead, which is
	// what caps the steady-state send rate at O(g + world/g).
	isPred := make(map[int]bool, 2)
	for _, t := range d.hbTargetsLocked() {
		isPred[t] = true
	}
	groupPool := d.topo.GroupMembers(d.topo.GroupOf(d.self))
	var pings []int
	for _, t := range groupPool {
		if t == d.self || d.dead[t] {
			continue
		}
		// Suspected peers are pinged too. A live one may be silent toward
		// us because it holds us dead — the majority side of a healed
		// partition, or a same-epoch peer that adopted our death after our
		// rejoin hello reached it — and the probe's epoch reconciliation is
		// how the two sides find each other again.
		window := d.interval
		if !isPred[t] {
			window = d.lease / 3 // lease pings: a few per lease horizon
		}
		if last, ok := d.lastSent[t]; ok && now.Sub(last) < window {
			continue // piggybacked: recent traffic already proved liveness
		}
		d.lastSent[t] = now
		pings = append(pings, t)
	}

	// Monitor evaluation: accrued suspicion past the threshold raises a
	// suspicion and gossips it.
	var newSuspects []int
	for m, mon := range d.monitors {
		if d.dead[m] {
			continue
		}
		if _, already := d.suspected[m]; already {
			continue
		}
		if mon.Phi(now) >= d.threshold {
			d.suspectLocked(m, now, CausePhi)
			newSuspects = append(newSuspects, m)
		}
	}
	// Lease evaluation for the group members outside this rank's monitor
	// set. The ±1/±2 ring cannot see into a contiguous far side of a
	// partition — its interior ranks are heartbeat-monitored only by their
	// own severed neighbors — but the contact lease covers every pair in the
	// group: a live peer keeps lease-pinging us, so a peer silent past the
	// full lease is as suspect as a monitored one crossing the phi
	// threshold. A false positive clears the same way monitor suspicions do
	// (ObserveRecv on the peer's next ping). Remote groups are covered by
	// report staleness at the delegates.
	var leaseSuspects []int
	for _, r := range groupPool {
		if r == d.self || d.dead[r] || d.monitors[r] != nil {
			continue
		}
		if _, already := d.suspected[r]; already {
			continue
		}
		if now.Sub(d.lastHeard[r]) > d.lease {
			d.suspectLocked(r, now, CauseLease)
			leaseSuspects = append(leaseSuspects, r)
		}
	}
	// Delegate duties: role transitions, whole-group staleness suspicion,
	// and the periodic report.
	report, reportTargets, groupSuspects := d.groupTickLocked(now)
	leaseSuspects = append(leaseSuspects, groupSuspects...)
	// Gossip every outstanding suspicion, not just the fresh ones: the send
	// path is lossy (full worker queue, redial backoff), and the would-be
	// coordinator may not monitor the victim itself — a one-shot gossip that
	// gets dropped would stall recovery forever. Suspicion windows are
	// short, so the per-tick retransmission is a handful of tiny frames.
	gossip := make([]int, 0, len(d.suspected))
	for s := range d.suspected {
		gossip = append(gossip, s)
	}
	sort.Ints(gossip)
	causes := make([]Cause, len(gossip))
	for i, s := range gossip {
		causes[i] = d.suspected[s]
	}
	// Drain requests are re-gossiped each tick for the same reason the
	// suspicions are: the send path is lossy and the coordinator may not
	// have heard the request directly.
	drains := setToSlice(d.pendingLeave)
	// The live group plus the other groups' delegates — the O(g + world/g)
	// fan-out bound.
	gossipTargets := d.gossipTargetsLocked(gossip)
	fence := d.refenceLocked()
	d.mu.Unlock()
	if fence != nil {
		fence()
	}
	if report != nil {
		for _, t := range reportTargets {
			d.send(t, report)
		}
	}

	ping := encodePing(epoch)
	for _, t := range pings {
		d.send(t, ping)
	}
	for _, s := range newSuspects {
		d.logf("rank %d: suspects rank %d dead (phi >= %.1f)", d.self, s, d.threshold)
	}
	for _, s := range leaseSuspects {
		d.logf("rank %d: suspects rank %d dead (contact lease expired)", d.self, s)
	}
	if fresh := len(newSuspects) + len(leaseSuspects); fresh > 0 && len(gossip) > 0 {
		// One gossip event per fresh round, not per retransmission tick —
		// the per-tick re-gossip would otherwise dominate the ring.
		trace.Default().Emit(int32(d.self), trace.KindGossip, 0, uint64(len(gossip)))
	}
	for i, s := range gossip {
		g := encodeSuspect(epoch, s, causes[i])
		for _, t := range gossipTargets {
			d.send(t, g)
		}
	}
	for _, s := range drains {
		g := encodeDrain(epoch, s)
		for _, t := range gossipTargets {
			d.send(t, g)
		}
	}

	d.driveProposal()
}

// suspectLocked records a (new) suspicion of rank r at time now, raised by
// the given detection path. Callers hold d.mu.
func (d *Detector) suspectLocked(r int, now time.Time, cause Cause) {
	if _, ok := d.suspected[r]; ok {
		return
	}
	d.suspected[r] = cause
	d.suspicions[cause]++
	if d.pendSuspect.IsZero() {
		d.pendSuspect, d.pendCause = now, cause
	}
	trace.Default().Emit(int32(d.self), trace.KindSuspect, 0, uint64(cause)<<32|uint64(r))
}
