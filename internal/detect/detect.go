// Package detect is the self-healing cluster's membership layer: a
// heartbeat failure detector plus an epoch-numbered recovery agreement,
// running on the long-lived replication mesh next to the distributed
// stable store.
//
// Each rank runs one Detector. It emits heartbeats to the ring predecessors
// that monitor it (piggybacking on any other traffic already flowing to
// them) and runs a phi-accrual Monitor over its ring successors. When a
// monitor's suspicion crosses the threshold — or, without waiting for any
// silence, when the transport reports that a peer's process is gone
// (ObserveLost) — the rank gossips the suspicion to the survivors; the
// coordinator — the lowest-ranked process not itself
// suspected — then drives a small two-phase agreement: it proposes
// (epoch+1, dead set) to every survivor, collects acknowledgments, and
// commits the transition. A committed epoch is the survivors' contract
// that the dead set is final for this recovery round: the runtime uses it
// to interrupt in-flight checkpoint commits, tear down the current MPI
// attempt, ask the respawner for replacement processes, and enter restore
// mode — all without an omniscient launcher.
//
// The protocol tolerates the failures that matter for fail-stop recovery:
// a suspected rank that is merely slow clears its suspicion the moment any
// message from it arrives (false-suspicion recovery), and a rank that has
// heard from it recently neither adopts the suspicion nor votes for its
// death; a coordinator that
// dies mid-agreement is itself suspected and the next-lowest survivor
// restarts the proposal with the union dead set; near-simultaneous deaths
// either merge into one proposal or commit as consecutive epochs. A
// replacement process rejoins by broadcasting hello: survivors mark the
// rank alive again, reset its monitor, and answer with the current
// (epoch, dead set) so the newcomer can adopt the world's state.
package detect

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"c3/internal/member"
	"c3/internal/trace"
	"c3/internal/transport"
)

// Options configures a Detector.
type Options struct {
	// Self is the local rank; Ranks the slot capacity: the number of
	// pre-allocated address slots this world can ever host (the elastic
	// membership can grow up to it). The launch-time membership is usually
	// smaller; see Members.
	Self, Ranks int
	// Members is the initial membership. Zero (Size 0) means the classic
	// fixed world: all Ranks slots are members at epoch 1. A spare slot
	// joining an existing world passes the membership it believes in
	// WITHOUT itself and calls JoinNew — it participates only once an
	// epoch agreement admits it.
	Members member.Set
	// Net is the detection plane (usually a transport.Demux plane sharing
	// the replication mesh).
	Net transport.Interconnect
	// HeartbeatInterval is the ping period (default 25ms).
	HeartbeatInterval time.Duration
	// PhiThreshold is the accrued suspicion level at which a peer is
	// declared suspect (default 5: the observed silence had probability
	// 1e-5 under the peer's arrival history).
	PhiThreshold float64
	// LeaseTimeout is the contact-lease horizon for the fencing rule: a
	// peer counts toward this rank's live view only while some message
	// from it arrived within the lease. The ring monitors cannot serve
	// here — a 2-rank minority monitors at most 3 distinct ranks, so it
	// could never prove the rest of the world unreachable. Instead every
	// rank sends low-rate lease pings to all peers outside its heartbeat
	// ring, and fencing is computed from actual receive evidence. Default
	// 10 heartbeat intervals.
	LeaseTimeout time.Duration
	// GroupSize enables the two-level topology: with g > 1 the membership
	// is partitioned into member.Topology groups of g consecutive ring
	// slots, heartbeats and lease pings stay inside the group, and one
	// runtime delegate per group carries cross-group liveness reports and
	// agreement relays (see group.go). 0 (or >= world) keeps the flat
	// protocol.
	GroupSize int
	// Relay, when non-nil in a grouped world, routes detector unicasts to
	// cross-group non-delegates through the destination group's delegate
	// (two hops), keeping the per-rank connection graph at O(g + world/g).
	// Without it every send is direct; the protocol is unaffected either
	// way.
	Relay *transport.Relay
	// Clock substitutes a time source (tests); default time.Now.
	Clock func() time.Time
	// OnEpoch fires after each committed epoch transition with the agreed
	// epoch, the membership that epoch installs, the full current dead
	// set, and the ranks newly declared dead. It is called from a detector
	// goroutine; receivers must not block for long (hand off to a channel).
	OnEpoch func(epoch uint64, members member.Set, dead, newDead []int)
	// OnEvicted fires if a committed epoch declares this very rank dead
	// while it is alive (a false suspicion that won agreement).
	OnEvicted func(epoch uint64)
	// OnDrained fires when a committed epoch removes this very rank from
	// the membership — a graceful shrink it (or an operator) requested.
	// The rank should stop participating and exit cleanly.
	OnDrained func(epoch uint64)
	// OnFence fires on fencing transitions: fenced=true when this rank can
	// no longer see a strict majority of the current membership (it is on
	// the minority side of a partition, or the world degraded past
	// quorum), fenced=false when majority contact returns. While fenced a
	// rank must refuse checkpoint commits and epoch advances — it could be
	// diverging from a majority that committed an epoch without it.
	OnFence func(fenced bool)
	// Logf, when non-nil, receives detector diagnostics.
	Logf func(format string, args ...any)
}

// Times reports the measured latency decomposition of the most recent
// committed epoch transition.
type Times struct {
	// SuspectAt is when the first suspicion of the transition was raised
	// locally (zero if this rank learned only through the commit).
	SuspectAt time.Time
	// AgreeAt is when the epoch commit was applied locally.
	AgreeAt time.Time
	// Cause is the detection path behind the suspicion at SuspectAt.
	Cause Cause
}

// Cause names the detection path that raised a suspicion. Suspect gossip
// carries it, so a rank that adopts another's suspicion reports the path
// that actually detected the failure.
type Cause uint8

const (
	// CauseNone: the suspicion was adopted from a proposal, which does not
	// say how the proposer came by it.
	CauseNone   Cause = iota
	CauseLoss         // the transport confirmed the peer's process gone
	CausePhi          // phi-accrual heartbeat silence crossed the threshold
	CauseLease        // the contact lease expired
	CauseReport       // the peer's group report went stale (grouped worlds)
	numCauses
)

var causeNames = [numCauses]string{"none", "loss", "phi", "lease", "report"}

// String returns the cause's name ("loss", "phi", ...).
func (c Cause) String() string {
	if c < numCauses {
		return causeNames[c]
	}
	return "invalid"
}

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

// Detector is one rank's failure-detection and membership endpoint.
type Detector struct {
	opts      Options
	self      int
	n         int
	net       transport.Interconnect
	interval  time.Duration
	threshold float64
	clock     func() time.Time

	groupSize int              // configured checkpoint-group size (0: flat)
	relay     *transport.Relay // optional two-hop router for cross-group sends
	// viaDemux: a demux's observers feed liveness (ObserveVia), so the
	// receive loop does not observe detector frames a second time. Set
	// before Start.
	viaDemux bool

	mu           sync.Mutex
	epoch        uint64
	members      member.Set        // current membership (epoch-stamped)
	memberEpoch  uint64            // epoch that last changed the member list
	topo         member.Topology   // two-level view of members (flat if groupSize<=1)
	dead         map[int]bool      // dead members (still members: respawn slots)
	suspected    map[int]Cause     // rank -> the path that raised its suspicion
	suspicions   [numCauses]uint64 // suspicions raised, by cause
	pendingJoin  map[int]bool      // non-member slots asking to join
	pendingLeave map[int]bool      // members asked to drain out
	monitors     map[int]*Monitor  // ring successors this rank watches
	lastSent     map[int]time.Time // piggyback: last outbound traffic per peer
	lastHeard    []time.Time       // contact lease: last inbound traffic per peer
	lease        time.Duration     // fencing contact-lease horizon
	prop         *proposal
	propSeq      uint64
	detections   uint64
	pendSuspect  time.Time // earliest suspicion since the last commit
	pendCause    Cause     // the path that raised it
	times        Times
	fenced       bool // live contact < strict majority of the membership
	closed       bool
	// changed is closed, and replaced, whenever epoch or members change:
	// a joiner waiting for admission wakes on it instead of a tick.
	changed chan struct{}

	// Grouped-mode state (see group.go). Indexed by group id; re-derived
	// at every membership change.
	gHeard      []time.Time          // last report (or member contact) per remote group
	gCount      []int                // believed live count per group
	lastReport  time.Time            // when this delegate last sent its report
	wasDelegate bool                 // delegate role at the previous tick (trace edges)
	relayAgg    map[aggKey]*aggState // delegate's cumulative ack aggregation

	sendMu        sync.Mutex
	senders       map[int]chan outFrame
	sendersClosed bool

	done chan struct{}
	wg   sync.WaitGroup
}

// New creates the detector for Options.Self. Call Start to launch it.
func New(opts Options) (*Detector, error) {
	if opts.Ranks <= 0 || opts.Self < 0 || opts.Self >= opts.Ranks {
		return nil, fmt.Errorf("detect: rank %d of %d", opts.Self, opts.Ranks)
	}
	if opts.Net == nil {
		return nil, fmt.Errorf("detect: no interconnect")
	}
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = 25 * time.Millisecond
	}
	if opts.PhiThreshold <= 0 {
		opts.PhiThreshold = 5
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if opts.LeaseTimeout <= 0 {
		opts.LeaseTimeout = 10 * opts.HeartbeatInterval
	}
	if opts.Members.Size() == 0 {
		opts.Members = member.Launch(opts.Ranks)
	}
	if opts.Members.Max() >= opts.Ranks {
		return nil, fmt.Errorf("detect: member slot %d outside capacity %d", opts.Members.Max(), opts.Ranks)
	}
	if opts.GroupSize < 0 {
		opts.GroupSize = 0
	}
	d := &Detector{
		opts:         opts,
		self:         opts.Self,
		n:            opts.Ranks,
		net:          opts.Net,
		interval:     opts.HeartbeatInterval,
		threshold:    opts.PhiThreshold,
		clock:        opts.Clock,
		epoch:        opts.Members.Epoch(),
		members:      opts.Members,
		memberEpoch:  opts.Members.Epoch(),
		groupSize:    opts.GroupSize,
		relay:        opts.Relay,
		dead:         make(map[int]bool),
		suspected:    make(map[int]Cause),
		pendingJoin:  make(map[int]bool),
		pendingLeave: make(map[int]bool),
		monitors:     make(map[int]*Monitor),
		lastSent:     make(map[int]time.Time),
		relayAgg:     make(map[aggKey]*aggState),
		senders:      make(map[int]chan outFrame),
		changed:      make(chan struct{}),
		done:         make(chan struct{}),
	}
	if d.epoch < 1 {
		d.epoch, d.memberEpoch = 1, 1
	}
	d.lease = opts.LeaseTimeout
	now := d.clock()
	d.retopoLocked(now)
	for _, m := range d.monitorWantedLocked() {
		d.monitors[m] = newMonitor(d.interval, now)
	}
	// Startup grace: every peer begins with a fresh lease, so a world that
	// is still dialing does not fence itself at launch.
	d.lastHeard = make([]time.Time, d.n)
	for r := range d.lastHeard {
		d.lastHeard[r] = now
	}
	return d, nil
}

// The heartbeat neighborhood is the member ring's ±1/±2: each rank
// monitors its two ring successors (member.Set.Successors) and heartbeats
// toward the two predecessors that monitor it. With the launch membership
// 0..n-1 this is exactly the fixed-world (rank±d)%n ring the detector
// shipped with.

// Start launches the heartbeat/evaluation ticker and the receive loop.
func (d *Detector) Start() {
	d.wg.Add(2)
	go d.tickLoop()
	go d.recvLoop()
}

// Close stops the detector: the ticker exits, the local receive port is
// killed, and the per-peer send workers drain. The shared mesh is left
// untouched (the demux owns it).
func (d *Detector) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.mu.Unlock()
	close(d.done)
	d.net.Kill(d.self)
	d.wg.Wait()
	d.sendMu.Lock()
	d.sendersClosed = true
	for _, ch := range d.senders {
		close(ch)
	}
	d.sendMu.Unlock()
}

// Epoch returns the current committed epoch (1 before any failure).
func (d *Detector) Epoch() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.epoch
}

// Dead returns the current dead set, sorted.
func (d *Detector) Dead() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return setToSlice(d.dead)
}

// Members returns the current committed membership.
func (d *Detector) Members() member.Set {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.members
}

// MembershipEpoch returns the epoch that installed the current member
// list: a join or drain agreement moves it, a death agreement does not.
func (d *Detector) MembershipEpoch() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.memberEpoch
}

// Suspicions returns how many suspicions this rank has raised or adopted,
// by the path that detected them. Every cause has an entry.
func (d *Detector) Suspicions() map[Cause]uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[Cause]uint64, numCauses-1)
	for c := CauseLoss; c < numCauses; c++ {
		out[c] = d.suspicions[c]
	}
	return out
}

// Topology returns the current two-level view of the membership (flat when
// grouping is disabled).
func (d *Detector) Topology() member.Topology {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.topo
}

// Detections returns how many rank deaths have been confirmed by committed
// epochs so far.
func (d *Detector) Detections() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.detections
}

// Times returns the latency decomposition of the latest epoch transition.
func (d *Detector) Times() Times {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.times
}

// Fenced reports whether this rank is fenced: the peers with a fresh
// contact lease (plus itself) no longer form a strict majority of the
// launch world, so it must assume a majority partition may be committing
// epochs without it.
func (d *Detector) Fenced() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fenced
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
	if d.groupedLocked() {
		// Grouped worlds have no all-pairs lease pings: direct contact
		// evidence covers the group, and the rest of the world counts
		// through the per-group report lease — a remote group whose report
		// is fresh contributes its reported live strength.
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
			if gid == ownGid {
				continue
			}
			if now.Sub(d.gHeard[gid]) <= d.lease {
				live += d.gCount[gid]
			}
		}
	} else {
		for _, r := range d.members.Members() {
			if r == d.self || d.dead[r] {
				continue
			}
			if now.Sub(d.lastHeard[r]) <= d.lease {
				live++
			}
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

// Suspected returns the currently suspected (not yet agreed dead) ranks.
func (d *Detector) Suspected() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]int, 0, len(d.suspected))
	for r := range d.suspected {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
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
// gossip adoption rule: in a grouped world a non-delegate ignores a rank
// of another group, and a delegate adopts it.
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
// hold: in a grouped world a non-delegate holds no suspicions of ranks in
// other groups, because the clearing evidence (the target group's
// reports) only reaches delegates. Callers hold d.mu.
func (d *Detector) crossGroupLocked(r int) bool {
	return d.groupedLocked() && d.topo.GroupOf(r) != d.topo.GroupOf(d.self) && !d.amDelegateLocked()
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
	if d.groupedLocked() {
		// Direct contact from a remote group (a protest ping, a relay hop's
		// agreement traffic) renews that group's report lease: any member
		// speaking proves the group is not wholesale dead.
		if gid := d.topo.GroupOf(from); gid != d.topo.GroupOf(d.self) && gid < len(d.gHeard) {
			d.gHeard[gid] = now
		}
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

// Join is called by a freshly respawned replacement process (its slot is
// still a member — death does not remove membership): it broadcasts hello
// until a survivor's state response raises the local epoch past the boot
// value, then returns the adopted epoch. Survivors react to the hello by
// marking this rank alive again and resetting its monitor.
func (d *Detector) Join(timeout time.Duration) (uint64, error) {
	boot := d.Epoch()
	return d.helloUntil(timeout, func() bool { return d.Epoch() > boot },
		"no survivor answered")
}

// JoinNew is called by a spare slot entering an existing world for the
// first time: it broadcasts hello (which survivors treat as a join
// request, because the sender is not a member) until an epoch agreement
// admits it to the membership, then returns the admitting epoch. The
// coordinator folds the join into its next proposal, so admission rides
// the same two-phase commit as a failure — a grow IS an epoch transition.
func (d *Detector) JoinNew(timeout time.Duration) (uint64, error) {
	return d.helloUntil(timeout, func() bool { return d.Members().Contains(d.self) },
		"membership never admitted us")
}

// helloUntil broadcasts hello every heartbeat interval until admitted()
// holds. It re-checks admitted() the moment the epoch or the membership
// changes, so a join returns as soon as the state snapshot lands.
func (d *Detector) helloUntil(timeout time.Duration, admitted func() bool, what string) (uint64, error) {
	deadline := d.clock().Add(timeout)
	tick := time.NewTicker(d.interval)
	defer tick.Stop()
	for hello := true; ; {
		d.mu.Lock()
		changed := d.changed
		d.mu.Unlock()
		if admitted() {
			return d.Epoch(), nil
		}
		if hello {
			d.helloAll()
		}
		if d.clock().After(deadline) {
			return 0, fmt.Errorf("detect: rank %d join timed out after %v (%s)", d.self, timeout, what)
		}
		select {
		case <-d.done:
			return 0, fmt.Errorf("detect: closed during join")
		case <-changed:
			hello = false
		case <-tick.C:
			hello = true
		}
	}
}

// helloAll broadcasts hello to every other slot.
func (d *Detector) helloAll() {
	hello := encodeHello()
	for q := 0; q < d.n; q++ {
		if q != d.self {
			d.send(q, hello)
		}
	}
}

// Drain requests a graceful shrink: remove target from the membership at
// the next epoch agreement. The request is gossiped to the live members
// every tick until a commit settles it (or the target stops being a
// member some other way). Draining self is allowed — the OnDrained
// callback fires once the removal commits.
func (d *Detector) Drain(target int) error {
	d.mu.Lock()
	if !d.members.Contains(target) {
		cur := d.members
		d.mu.Unlock()
		return fmt.Errorf("detect: drain target %d is not a member (%s)", target, cur)
	}
	d.pendingLeave[target] = true
	d.mu.Unlock()
	d.driveProposal()
	return nil
}

func (d *Detector) logf(format string, args ...any) {
	if d.opts.Logf != nil {
		d.opts.Logf(format, args...)
	}
}

// --- Outbound path ---

// outFrame is one queued detector send: the payload and the intermediate
// hop it routes through (-1: direct).
type outFrame struct {
	p   payload
	via int
}

// send enqueues a payload toward a peer on its dedicated worker, so a dead
// peer's connection stalls never delay heartbeats to live peers. In a
// grouped world with a relay wired, sends to cross-group non-delegates
// route through the destination group's runtime delegate.
func (d *Detector) send(to int, p payload) {
	via := -1
	if d.relay != nil {
		d.mu.Lock()
		via = d.routeLocked(to)
		d.mu.Unlock()
	}
	d.sendMu.Lock()
	if d.sendersClosed {
		d.sendMu.Unlock()
		return
	}
	ch := d.senders[to]
	if ch == nil {
		ch = make(chan outFrame, 64)
		d.senders[to] = ch
		go d.sendWorker(to, ch)
	}
	d.sendMu.Unlock()
	select {
	case ch <- outFrame{p: p, via: via}:
	default: // worker stalled on a dead peer: drop, heartbeats are periodic
	}
}

func (d *Detector) sendWorker(to int, ch chan outFrame) {
	for f := range ch {
		if f.via >= 0 && d.relay != nil {
			_ = d.relay.Send(f.via, to, f.p)
			continue
		}
		_ = d.net.Send(transport.Message{From: d.self, To: to, Class: transport.Control, Payload: f.p})
	}
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
	grouped := d.groupedLocked()
	// Heartbeats to the predecessors that monitor this rank (every
	// interval), and low-rate lease pings to every other live member so the
	// whole world keeps receiving positive contact evidence for the fencing
	// rule. Both are skipped when other traffic already reached the peer
	// within the window (piggybacking). In a grouped world both stay inside
	// the group — cross-group liveness travels in delegate reports instead,
	// which is what caps the steady-state send rate at O(g + world/g).
	isPred := make(map[int]bool, 2)
	for _, t := range d.hbTargetsLocked() {
		isPred[t] = true
	}
	pingPool := d.members.Members()
	if grouped {
		pingPool = d.topo.GroupMembers(d.topo.GroupOf(d.self))
	}
	var pings []int
	for _, t := range pingPool {
		if t == d.self || d.dead[t] {
			continue
		}
		if _, susp := d.suspected[t]; susp && !d.fenced {
			// A fenced rank keeps pinging the peers it suspects: they are
			// probably on the majority side of a partition, and these probes
			// are how it discovers the heal (the majority, which declared us
			// dead, no longer sends anything our way — the probe's epoch
			// reconciliation pulls their newer state over).
			continue
		}
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
	// Lease evaluation for the ranks outside this rank's monitor set. The
	// ±1/±2 ring cannot see into a contiguous far-side group — its interior
	// ranks are heartbeat-monitored only by their own severed neighbors —
	// but the contact lease covers every pair: a live peer keeps lease-
	// pinging us, so a peer silent past the full lease is as suspect as a
	// monitored one crossing the phi threshold. A false positive clears the
	// same way monitor suspicions do (ObserveRecv on the peer's next ping).
	// Grouped, the lease only covers the group (lease pings stay inside
	// it); remote groups are covered by report staleness at the delegates.
	leasePool := d.members.Members()
	if grouped {
		leasePool = pingPool
	}
	var leaseSuspects []int
	for _, r := range leasePool {
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
	// Grouped-mode duties: delegate role transitions, whole-group staleness
	// suspicion, and the periodic delegate report.
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
	// Flat: everyone live. Grouped: the live group plus the other groups'
	// delegates — the O(g + world/g) fan-out bound.
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

// dropProposalLocked abandons the in-flight proposal (if any), closing
// its agree span as uncommitted. Callers hold d.mu.
func (d *Detector) dropProposalLocked() {
	if d.prop != nil {
		d.prop.sp.End(0)
		d.prop = nil
	}
}

// liveExceptLocked returns every member that is not self, not dead, not
// suspected, and not in skip. Callers hold d.mu.
func (d *Detector) liveExceptLocked(skip []int) []int {
	skipSet := make(map[int]bool, len(skip))
	for _, s := range skip {
		skipSet[s] = true
	}
	var out []int
	for _, r := range d.members.Members() {
		if r == d.self || d.dead[r] || skipSet[r] {
			continue
		}
		if _, susp := d.suspected[r]; susp {
			continue
		}
		out = append(out, r)
	}
	return out
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
	// Retransmission targets. Flat: every pending voter directly. Grouped:
	// own-group voters directly, every remote group through one relayed
	// propose to its runtime delegate — O(g + world/g) frames per round
	// instead of O(world). driveProposal runs every tick, so a delegate
	// dying mid-agreement just redirects the next round's relay to the
	// group's new runtime delegate.
	var direct []int
	relayVias := make(map[int]bool)
	if d.groupedLocked() {
		ownGid := d.topo.GroupOf(d.self)
		for r := range p.pending {
			gid := d.topo.GroupOf(r)
			if gid == ownGid {
				direct = append(direct, r)
				continue
			}
			via := d.delegateOfLocked(gid)
			if via < 0 || via == d.self {
				direct = append(direct, r)
				continue
			}
			relayVias[via] = true
		}
	} else {
		for r := range p.pending {
			direct = append(direct, r)
		}
	}
	d.mu.Unlock()
	msg := encodePropose(p.epoch, p.seq, p.dead, p.members)
	for _, t := range direct {
		d.send(t, msg)
	}
	if len(relayVias) > 0 {
		rly := encodeProposeRly(p.epoch, p.seq, d.self, 1, p.dead, p.members)
		for _, via := range setToSlice(relayVias) {
			d.send(via, rly)
		}
	}
}

// commitProposal finalizes an agreement: broadcast the commit and apply it
// locally. The broadcast covers the union of the old and new member sets,
// so a freshly admitted slot learns of its own admission and a drained
// slot learns it is out.
func (d *Detector) commitProposal(p *proposal) {
	d.mu.Lock()
	targets := make(map[int]bool, len(p.members)+d.members.Size())
	for _, r := range d.members.Members() {
		targets[r] = true
	}
	grouped := d.groupedLocked()
	d.mu.Unlock()
	for _, r := range p.members {
		targets[r] = true
	}
	for _, dr := range p.dead {
		delete(targets, dr)
	}
	delete(targets, d.self)
	msg := encodeCommit(p.epoch, p.dead, p.members)
	if !grouped {
		for _, r := range setToSlice(targets) {
			d.send(r, msg)
		}
		d.applyEpoch(p.epoch, p.dead, p.members, "agreement")
		return
	}
	// Grouped: direct commits to this rank's group and to slots leaving the
	// new membership; one relayed commit per remote group, addressed to its
	// lowest not-dead member under the topology the commit installs (which
	// re-broadcasts it group-locally, see handleCommitRly). A dropped relay
	// heals through the report/ping epoch reconciliation.
	next := member.NewTopology(member.New(p.epoch, p.members), d.groupSize)
	deadSet := make(map[int]bool, len(p.dead))
	for _, r := range p.dead {
		deadSet[r] = true
	}
	ownGid := next.GroupOf(d.self)
	var direct []int
	vias := make(map[int]bool)
	for _, r := range setToSlice(targets) {
		if next.Flat() || !next.Set().Contains(r) || next.GroupOf(r) == ownGid {
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
	rly := encodeCommitRly(p.epoch, p.dead, p.members)
	for _, r := range direct {
		d.send(r, msg)
	}
	for _, via := range setToSlice(vias) {
		d.send(via, rly)
	}
	d.applyEpoch(p.epoch, p.dead, p.members, "agreement")
}

// applyEpoch installs a committed epoch transition (from our own agreement,
// a peer's commit, or a state snapshot) — the new membership, the dead set
// — rebuilds the heartbeat ring for the new member set, and fires OnEpoch
// (or OnDrained/OnEvicted when the transition removes this very rank).
func (d *Detector) applyEpoch(epoch uint64, dead, members []int, via string) {
	now := d.clock()
	d.mu.Lock()
	if epoch <= d.epoch {
		d.mu.Unlock()
		return
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
	// per-group report leases; delegate ack aggregates for epochs at or
	// below the committed one are settled.
	d.retopoLocked(now)
	for k := range d.relayAgg {
		if k.epoch <= epoch {
			delete(d.relayAgg, k)
		}
	}
	// Rebuild the monitor ring for the new membership: keep the arrival
	// history of successors we already watched, start fresh monitors for
	// new ones, drop the rest.
	wanted := d.monitorWantedLocked()
	next := make(map[int]*Monitor, len(wanted))
	for _, m := range wanted {
		if mon := d.monitors[m]; mon != nil {
			next[m] = mon
		} else {
			next[m] = newMonitor(d.interval, now)
		}
	}
	d.monitors = next
	for r := range newSet {
		if m := d.monitors[r]; m != nil {
			m.Reset(now) // suspended while dead; fresh history on rejoin
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
		return
	}
	if selfDead {
		d.logf("rank %d: DECLARED DEAD by epoch %d while alive", d.self, epoch)
		if onEvicted != nil {
			onEvicted(epoch)
		}
		return
	}
	if onEpoch != nil {
		onEpoch(epoch, newMembers, allDead, newDead)
	}
}

// --- Receive path ---

func (d *Detector) recvLoop() {
	defer d.wg.Done()
	ep := d.net.Endpoint(d.self)
	for {
		msg, err := ep.Recv()
		if err != nil {
			return
		}
		data, ok := msg.Payload.(payload)
		if !ok || len(data) == 0 || msg.From == d.self {
			continue
		}
		// Any detector message is itself liveness evidence, unless a demux
		// observer already recorded it on arrival (ObserveVia).
		if !d.viaDemux {
			d.ObserveRecv(msg.From)
		}
		d.handle(msg.From, data)
	}
}

func (d *Detector) handle(from int, data payload) {
	switch data[0] {
	case msgPing:
		epoch, err := decodePing(data)
		if err != nil {
			return
		}
		d.reconcileEpoch(from, epoch)
	case msgSuspect:
		epoch, target, cause, err := decodeSuspect(data)
		if err != nil {
			return
		}
		if target == d.self {
			// Protest: we are alive. The ping clears the suspicion at the
			// gossiper via ObserveRecv.
			d.send(from, encodePing(d.Epoch()))
			return
		}
		now := d.clock()
		d.mu.Lock()
		if epoch < d.epoch {
			// Stale gossip: the suspicion predates an epoch we have already
			// committed. A rank cleared by that newer epoch (rejoin, or an
			// exoneration folded into the commit) must not be re-suspected
			// by a reordered old frame — drop it and re-seed the gossiper.
			cur, deadNow, membersNow := d.epoch, setToSlice(d.dead), d.members.Members()
			d.mu.Unlock()
			d.send(from, encodeState(cur, deadNow, membersNow))
			return
		}
		// Non-delegates hold no cross-group suspicions: adopting here could
		// strand a stale suspicion forever. The delegates, who do adopt it,
		// drive the agreement if it is real.
		if !d.dead[target] && d.members.Contains(target) && !d.crossGroupLocked(target) &&
			!d.contradictedLocked(target, now) {
			d.suspectLocked(target, now, cause)
		}
		fence := d.refenceLocked()
		d.mu.Unlock()
		if fence != nil {
			fence()
		}
		d.driveProposal()
	case msgPropose:
		epoch, seq, dead, members, err := decodePropose(data)
		if err != nil {
			return
		}
		d.handlePropose(from, epoch, seq, dead, members)
	case msgAck:
		epoch, seq, err := decodeAck(data)
		if err != nil {
			return
		}
		d.handleAck(from, epoch, seq)
	case msgCommit:
		epoch, dead, members, err := decodeCommit(data)
		if err != nil {
			return
		}
		d.applyEpoch(epoch, dead, members, fmt.Sprintf("commit from rank %d", from))
	case msgHello:
		d.handleHello(from)
	case msgDrain:
		_, target, err := decodeDrain(data)
		if err != nil {
			return
		}
		d.mu.Lock()
		isMember := d.members.Contains(target)
		if isMember {
			d.pendingLeave[target] = true
		}
		d.mu.Unlock()
		if isMember {
			d.driveProposal()
		}
	case msgReport:
		epoch, groups, live, err := decodeReport(data)
		if err != nil {
			return
		}
		d.handleReport(from, epoch, groups, live)
	case msgProposeRly:
		epoch, seq, origin, hops, dead, members, err := decodeProposeRly(data)
		if err != nil {
			return
		}
		d.handleProposeRly(from, epoch, seq, origin, hops, dead, members)
	case msgAckAgg:
		epoch, seq, ranks, err := decodeAckAgg(data)
		if err != nil {
			return
		}
		d.handleAckAgg(from, epoch, seq, ranks)
	case msgCommitRly:
		epoch, dead, members, err := decodeCommitRly(data)
		if err != nil {
			return
		}
		d.handleCommitRly(from, epoch, dead, members)
	case msgState:
		epoch, dead, members, err := decodeState(data)
		if err != nil {
			return
		}
		// Adopt a newer membership snapshot (join, or catch-up after a
		// missed commit).
		selfDead := false
		filtered := dead[:0:0]
		for _, r := range dead {
			if r == d.self {
				selfDead = true
				continue
			}
			filtered = append(filtered, r)
		}
		wasBehind := epoch > d.Epoch()
		d.applyEpoch(epoch, filtered, members, fmt.Sprintf("state from rank %d", from))
		if selfDead && wasBehind {
			// The snapshot declared this very rank dead: a majority
			// committed an epoch while we were fenced off. We adopted the
			// majority's view (minus ourselves); now broadcast hello so the
			// survivors mark us alive again and reset our monitors — the
			// heal half of the fencing state machine.
			d.helloAll()
			d.logf("rank %d: rejoining — epoch %d had declared us dead", d.self, epoch)
		}
	default:
		d.logf("rank %d: unknown detect message %s from rank %d", d.self, kindName(data[0]), from)
	}
}

// reconcileEpoch compares a peer's advertised epoch with ours and heals a
// divergence: a lagging peer gets our state, and if we lag we ask for
// theirs.
func (d *Detector) reconcileEpoch(from int, peerEpoch uint64) {
	d.mu.Lock()
	cur := d.epoch
	dead := setToSlice(d.dead)
	members := d.members.Members()
	d.mu.Unlock()
	switch {
	case peerEpoch < cur:
		d.send(from, encodeState(cur, dead, members))
	case peerEpoch > cur:
		d.send(from, encodeHello())
	}
}

func (d *Detector) handlePropose(from int, epoch, seq uint64, dead, members []int) {
	for _, r := range dead {
		if r == d.self {
			// Proposed dead while alive: protest instead of acking; the
			// proposer clears the suspicion when the ping arrives.
			d.send(from, encodePing(d.Epoch()))
			return
		}
	}
	if !d.adoptPropose(from, epoch, dead, members) {
		return
	}
	d.send(from, encodeAck(epoch, seq))
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

func (d *Detector) handleAck(from int, epoch, seq uint64) {
	d.mu.Lock()
	p := d.prop
	if p != nil && p.epoch == epoch && p.seq == seq && p.pending[from] {
		delete(p.pending, from)
		p.acked[from] = true
		ready := 1+len(p.acked) >= d.quorum()
		d.mu.Unlock()
		if ready {
			d.commitProposal(p)
		}
		return
	}
	// Delegate path: a group member's vote on a proposal this rank relayed
	// (handleProposeRly). Fold it into the aggregate and forward the
	// cumulative set — the coordinator dedups, so resends are harmless.
	agg := d.relayAgg[aggKey{epoch: epoch, seq: seq}]
	if agg == nil || agg.acked[from] {
		d.mu.Unlock()
		return
	}
	agg.acked[from] = true
	origin := agg.origin
	ranks := setToSlice(agg.acked)
	d.mu.Unlock()
	d.send(origin, encodeAckAgg(epoch, seq, ranks))
}

// handleHello marks a (re)joining member alive and answers with the
// current membership snapshot. A hello from a slot that is NOT a member
// is a join request: it is recorded for the coordinator to fold into the
// next epoch agreement, and answered with the snapshot so the newcomer
// can adopt the world's state while it waits for admission.
func (d *Detector) handleHello(from int) {
	now := d.clock()
	d.mu.Lock()
	wantJoin := false
	if !d.members.Contains(from) {
		if !d.pendingJoin[from] {
			d.logf("rank %d: slot %d asks to join (hello from non-member)", d.self, from)
		}
		d.pendingJoin[from] = true
		wantJoin = true
	}
	if d.dead[from] {
		delete(d.dead, from)
		d.logf("rank %d: rank %d rejoined (hello)", d.self, from)
	}
	delete(d.suspected, from)
	if m := d.monitors[from]; m != nil {
		m.Reset(now)
	}
	epoch := d.epoch
	dead := setToSlice(d.dead)
	members := d.members.Members()
	fence := d.refenceLocked()
	d.mu.Unlock()
	if fence != nil {
		fence()
	}
	d.send(from, encodeState(epoch, dead, members))
	if wantJoin {
		d.driveProposal()
	}
}

// --- Helpers ---

func setToSlice(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
