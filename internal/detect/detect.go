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
	// GroupSize sets the two-level topology: the membership is partitioned
	// into member.Topology groups of g consecutive ring slots, heartbeats
	// and lease pings stay inside the group, and one runtime delegate per
	// group carries cross-group liveness reports and agreement relays (see
	// group.go). 0 (or >= world) makes the whole world one group.
	GroupSize int
	// Relay, when non-nil, routes detector unicasts to cross-group
	// non-delegates through the destination group's delegate (two hops),
	// keeping the per-rank connection graph at O(g + world/g). Without it
	// every send is direct; the protocol is unaffected either way.
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

// Detector is one rank's failure-detection and membership endpoint.
type Detector struct {
	opts      Options
	self      int
	n         int
	net       transport.Interconnect
	interval  time.Duration
	threshold float64
	clock     func() time.Time

	groupSize int              // configured checkpoint-group size (0: one group)
	relay     *transport.Relay // optional two-hop router for cross-group sends
	// viaDemux: a demux's observers feed liveness (ObserveVia), so the
	// receive loop does not observe detector frames a second time. Set
	// before Start.
	viaDemux bool

	mu           sync.Mutex
	epoch        uint64
	members      member.Set        // current membership (epoch-stamped)
	memberEpoch  uint64            // epoch that last changed the member list
	topo         member.Topology   // two-level view of members (one group if groupSize<=1)
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

	// Two-level state (see group.go). Indexed by group id; re-derived at
	// every membership change.
	gHeard      []time.Time             // last report (or member contact) per remote group
	gCount      []int                   // believed live count per group
	lastReport  time.Time               // when this delegate last sent its report
	wasDelegate bool                    // delegate role at the previous tick (trace edges)
	relayAgg    map[aggKey]map[int]bool // delegate's cumulative vote aggregation

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
		relayAgg:     make(map[aggKey]map[int]bool),
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

// The heartbeat neighborhood is the group-local ring's ±1/±2: each rank
// monitors its two ring successors (member.Topology.GroupSuccessors) and
// heartbeats toward the two predecessors that monitor it. With one group
// and the launch membership 0..n-1 this is exactly the fixed-world
// (rank±d)%n ring the detector shipped with.

// Start launches the heartbeat/evaluation ticker and the receive loop. The
// silence clocks (phi monitors and contact leases) restart here, so the
// time between New and Start counts against no peer.
func (d *Detector) Start() {
	now := d.clock()
	d.mu.Lock()
	for r := range d.lastHeard {
		d.lastHeard[r] = now
	}
	for _, m := range d.monitors {
		m.Reset(now)
	}
	d.mu.Unlock()
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

// Topology returns the current two-level view of the membership (one group
// when grouping is disabled).
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
// peer's connection stalls never delay heartbeats to live peers. With a
// relay wired, sends to cross-group non-delegates route through the
// destination group's runtime delegate.
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
		epoch, seq, origin, hops, dead, members, err := decodePropose(data)
		if err != nil {
			return
		}
		d.handlePropose(from, epoch, seq, origin, hops, dead, members)
	case msgAck:
		epoch, seq, origin, ranks, err := decodeAck(data)
		if err != nil {
			return
		}
		d.handleAck(epoch, seq, origin, ranks)
	case msgCommit:
		epoch, relay, dead, members, err := decodeCommit(data)
		if err != nil {
			return
		}
		d.handleCommit(from, epoch, relay, dead, members)
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
		adopted := d.applyEpoch(epoch, filtered, members, fmt.Sprintf("state from rank %d", from))
		switch {
		case adopted && selfDead:
			// The snapshot declared this very rank dead: a majority
			// committed an epoch while we were fenced off. We adopted the
			// majority's view (minus ourselves); now broadcast hello so the
			// survivors mark us alive again and reset our monitors — the
			// heal half of the fencing state machine.
			d.helloAll()
			d.logf("rank %d: rejoining — epoch %d had declared us dead", d.self, epoch)
		case selfDead && epoch == d.Epoch():
			// A peer at our own epoch still holds us dead: it adopted the
			// epoch after our rejoin hello reached it. Tell it again.
			d.send(from, encodeHello())
		}
	default:
		d.logf("rank %d: unknown detect message %s from rank %d", d.self, kindName(data[0]), from)
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
