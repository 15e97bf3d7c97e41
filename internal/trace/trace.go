// Package trace is the repo's zero-dependency causal tracing plane: a
// flight recorder that every protocol layer writes lightweight span
// events into, plus the Lamport-clocked causal context that rides on
// wire frames so per-rank recordings can be stitched into one
// cross-rank happens-before timeline without synchronized clocks.
//
// The design splits into three pieces:
//
//   - Events and spans. An Event is a fixed-shape record (span id,
//     parent, rank, kind, phase, Lamport clock, timestamp, one numeric
//     argument). Begin/End pairs bracket protocol phases (serialize,
//     encode, ship, ack, suspect, agree, restore, ...); Send/Recv pairs
//     are the cross-rank edges. End events also feed per-kind
//     log-bucketed latency histograms, so the same instrumentation
//     serves both post-mortem timelines and live /metrics.
//
//   - The flight recorder. A fixed-size ring of atomic.Pointer slots:
//     the write path is one atomic counter increment plus one pointer
//     store, lock-free and race-detector-clean, so it can stay always
//     on inside commit and detection hot paths. The ring holds the last
//     N thousand events; Snapshot collects a consistent set for dumping.
//
//   - Causal context. Ctx{Span, Clock} piggybacks on transport
//     messages: the sender stamps its Lamport clock and a fresh edge
//     span id, the receiver merges max(local, remote)+1. A recv event
//     therefore always carries a Lamport clock strictly greater than
//     its send event — the invariant cmd/c3trace re-verifies when
//     merging dumps (a violation means a protocol or transport bug).
//
// Timestamps come from an injectable clock. Real worlds use wall time
// (never compared across ranks — only Lamport order is); worlds under
// the virtual transport.Scheduler install the scheduler's logical
// clock, which makes recorded traces byte-for-byte replay-deterministic.
package trace

import (
	"sync/atomic"
	"time"
)

// Kind classifies what protocol phase or edge an event belongs to.
type Kind uint8

const (
	// KindNone is an unclassified event (never recorded by this repo;
	// decodable for forward compatibility).
	KindNone Kind = iota
	// KindSend / KindRecv are the cross-rank message edges.
	KindSend
	KindRecv
	// Commit pipeline stages (ckpt + stable).
	KindCommit    // whole commit: enqueue -> durable
	KindSerialize // application/MPI state capture
	KindEncode    // erasure-codec shard encode
	KindShip      // fragment + marker transmission to one peer
	KindAck       // waiting for replication acks
	// Detector phases.
	KindSuspect // first local suspicion of a rank (arg: cause<<32|rank, cause per detect.Cause)
	KindGossip  // suspicion gossip fan-out
	KindAgree   // two-phase epoch agreement (propose -> commit)
	KindEpoch   // committed epoch transition applied locally
	KindFence   // fencing transition (arg: 1=fenced, 0=unfenced)
	// Recovery and membership.
	KindRespawn    // launcher respawning a dead rank
	KindReassemble // rebuilding a lost rank's fragments from peers
	KindRestore    // recovery-line restore on one rank
	KindMember     // membership transition (join/drain) applied
	// Two-level topology (checkpoint groups).
	KindGroup // group event (arg: packed gid<<32|role — delegate changes, group suspicion)
	KindRelay // inter-group relay hop (arg: final destination rank)
	// KindCount is the number of kinds; keep it last.
	KindCount
)

var kindNames = [KindCount]string{
	KindNone:       "none",
	KindSend:       "send",
	KindRecv:       "recv",
	KindCommit:     "commit",
	KindSerialize:  "serialize",
	KindEncode:     "encode",
	KindShip:       "ship",
	KindAck:        "ack",
	KindSuspect:    "suspect",
	KindGossip:     "gossip",
	KindAgree:      "agree",
	KindEpoch:      "epoch",
	KindFence:      "fence",
	KindRespawn:    "respawn",
	KindReassemble: "reassemble",
	KindRestore:    "restore",
	KindMember:     "member",
	KindGroup:      "group",
	KindRelay:      "relay",
}

// String returns the kind's lowercase name ("commit", "suspect", ...).
func (k Kind) String() string {
	if k < KindCount {
		return kindNames[k]
	}
	return "invalid"
}

// ParseKind maps a kind name back to its Kind; KindNone if unknown.
func ParseKind(s string) Kind {
	for k, name := range kindNames {
		if name == s {
			return Kind(k)
		}
	}
	return KindNone
}

// Phase says which side of a span an event records.
type Phase uint8

const (
	// PhaseInstant is a point event (no duration).
	PhaseInstant Phase = iota
	// PhaseBegin / PhaseEnd bracket a duration span.
	PhaseBegin
	PhaseEnd
	// PhaseSend / PhaseRecv are message-edge endpoints.
	PhaseSend
	PhaseRecv
)

// String names the phase for timeline rendering.
func (p Phase) String() string {
	switch p {
	case PhaseInstant:
		return "instant"
	case PhaseBegin:
		return "begin"
	case PhaseEnd:
		return "end"
	case PhaseSend:
		return "send"
	case PhaseRecv:
		return "recv"
	}
	return "invalid"
}

// Event is one flight-recorder record. Events are fixed-shape so the
// dump codec is a flat array and the ring never chases variable-length
// payloads on the write path.
type Event struct {
	Seq    uint64 // recorder-local write sequence
	Span   uint64 // span id (rank-salted, unique across the world)
	Parent uint64 // enclosing span id, 0 if root
	Kind   Kind
	Phase  Phase
	Rank   int32  // rank that recorded the event
	Peer   int32  // other rank for send/recv edges, -1 otherwise
	Clock  uint64 // Lamport clock at record time
	Time   int64  // nanoseconds, wall or virtual (never cross-rank compared)
	Arg    uint64 // kind-specific payload: bytes, epoch, line id, ...
}

// Ctx is the causal context piggybacked on wire frames: the edge span
// id and the sender's Lamport clock at send time. The zero Ctx means
// "no context" (e.g. frames from a pre-trace build) and is ignored.
type Ctx struct {
	Span  uint64
	Clock uint64
}

// DefaultRing is the default per-process ring capacity (events).
const DefaultRing = 1 << 14

type clockFunc func() int64

// Recorder is one process's flight recorder. All methods are safe for
// concurrent use; the record path is lock-free.
type Recorder struct {
	seq      atomic.Uint64 // next write position (monotonic)
	lclock   atomic.Uint64 // Lamport clock
	spans    atomic.Uint64 // span id counter
	clock    atomic.Pointer[clockFunc]
	salt     atomic.Uint64 // rank salt folded into span ids
	disabled atomic.Bool   // kill switch; see SetEnabled
	hists    [KindCount]Hist
	slots    []atomic.Pointer[Event]
	mask     uint64
}

// New creates a Recorder with a ring of the given capacity, rounded up
// to a power of two (minimum 64). The clock defaults to wall time.
func New(capacity int) *Recorder {
	n := uint64(64)
	for int(n) < capacity {
		n <<= 1
	}
	r := &Recorder{slots: make([]atomic.Pointer[Event], n), mask: n - 1}
	fn := clockFunc(wallNow)
	r.clock.Store(&fn)
	return r
}

// wallNow is the default timestamp source. Scheduled (virtual) worlds
// replace it via SetClock with the scheduler's logical clock; real
// worlds keep wall time, which is only ever compared within one rank.
func wallNow() int64 {
	return time.Now().UnixNano()
}

// SetClock installs the timestamp source (nanoseconds). Worlds running
// under the virtual scheduler install its logical clock so recorded
// traces are replay-deterministic.
func (r *Recorder) SetClock(now func() int64) {
	if now == nil {
		fn := clockFunc(wallNow)
		r.clock.Store(&fn)
		return
	}
	fn := clockFunc(now)
	r.clock.Store(&fn)
}

// SetSalt folds a world-unique value (the rank, in one-process-per-rank
// worlds) into generated span ids so ids never collide across per-rank
// recorders that each start their counter at zero.
func (r *Recorder) SetSalt(salt uint64) { r.salt.Store(salt) }

// SetEnabled flips the recorder's kill switch. The flight recorder is on
// by default; disabling it reduces every record call to one atomic load,
// which is how the tracing overhead is measured A/B (c3bench -notrace)
// rather than estimated. Disabled recorders also stop ticking the
// Lamport clock and hand out zero contexts, so mixed worlds (some ranks
// tracing, some not) still merge cleanly: zero Ctx means "no context".
func (r *Recorder) SetEnabled(on bool) { r.disabled.Store(!on) }

// Enabled reports whether the recorder is recording.
func (r *Recorder) Enabled() bool { return !r.disabled.Load() }

func (r *Recorder) now() int64 { return (*r.clock.Load())() }

// tick advances the Lamport clock for a local event.
func (r *Recorder) tick() uint64 { return r.lclock.Add(1) }

// merge folds a received Lamport clock: clock = max(local, remote)+1.
func (r *Recorder) merge(remote uint64) uint64 {
	for {
		local := r.lclock.Load()
		next := local + 1
		if remote >= local {
			next = remote + 1
		}
		if r.lclock.CompareAndSwap(local, next) {
			return next
		}
	}
}

// Clock returns the current Lamport clock (diagnostics).
func (r *Recorder) Clock() uint64 { return r.lclock.Load() }

// NewSpan allocates a world-unique span id. The salt (set once per
// process) occupies the high bits; the counter the low 40.
func (r *Recorder) NewSpan() uint64 {
	return (r.salt.Load()+1)<<40 | (r.spans.Add(1) & (1<<40 - 1))
}

// record is the lock-free write path: reserve a slot with one atomic
// add, then publish an immutable event with one pointer store. A reader
// that races a wraparound sees either the old or the new event pointer,
// both internally consistent.
func (r *Recorder) record(ev Event) {
	ev.Seq = r.seq.Add(1) - 1
	r.slots[ev.Seq&r.mask].Store(&ev)
}

// Emit records an instant event.
func (r *Recorder) Emit(rank int32, kind Kind, parent uint64, arg uint64) {
	if r.disabled.Load() {
		return
	}
	r.record(Event{
		Span: r.NewSpan(), Parent: parent, Kind: kind, Phase: PhaseInstant,
		Rank: rank, Peer: -1, Clock: r.tick(), Time: r.now(), Arg: arg,
	})
}

// Span is an open Begin/End bracket returned by Begin.
type Span struct {
	r     *Recorder
	id    uint64
	kind  Kind
	rank  int32
	start int64
}

// Begin opens a span of the given kind and records its begin event. On a
// disabled recorder it returns the zero Span, whose End is a no-op.
func (r *Recorder) Begin(rank int32, kind Kind, parent uint64, arg uint64) Span {
	if r.disabled.Load() {
		return Span{}
	}
	now := r.now()
	id := r.NewSpan()
	r.record(Event{
		Span: id, Parent: parent, Kind: kind, Phase: PhaseBegin,
		Rank: rank, Peer: -1, Clock: r.tick(), Time: now, Arg: arg,
	})
	return Span{r: r, id: id, kind: kind, rank: rank, start: now}
}

// ID returns the span id, for parenting child spans.
func (s Span) ID() uint64 { return s.id }

// End closes the span: records the end event and feeds the span's
// duration into the per-kind latency histogram. A zero Span is a no-op,
// so callers can End unconditionally on early-return paths.
func (s Span) End(arg uint64) {
	if s.r == nil {
		return
	}
	now := s.r.now()
	s.r.record(Event{
		Span: s.id, Kind: s.kind, Phase: PhaseEnd,
		Rank: s.rank, Peer: -1, Clock: s.r.tick(), Time: now, Arg: arg,
	})
	if d := now - s.start; d >= 0 {
		s.r.hists[s.kind].Observe(d)
	}
}

// Observe feeds a duration into the per-kind histogram without
// recording ring events — for layers that already measure durations
// with their own injected clocks.
func (r *Recorder) Observe(kind Kind, d time.Duration) {
	if r.disabled.Load() {
		return
	}
	if kind < KindCount && d >= 0 {
		r.hists[kind].Observe(int64(d))
	}
}

// Histogram returns a snapshot of the latency histogram for kind.
func (r *Recorder) Histogram(kind Kind) HistSnapshot {
	if kind >= KindCount {
		return HistSnapshot{}
	}
	return r.hists[kind].Snapshot()
}

// Send records a message-edge send event and returns the causal context
// to piggyback on the frame. arg is a kind-specific payload (byte count
// or wire kind).
func (r *Recorder) Send(rank, peer int32, arg uint64) Ctx {
	if r.disabled.Load() {
		return Ctx{}
	}
	clock := r.tick()
	id := r.NewSpan()
	r.record(Event{
		Span: id, Kind: KindSend, Phase: PhaseSend,
		Rank: rank, Peer: peer, Clock: clock, Time: r.now(), Arg: arg,
	})
	return Ctx{Span: id, Clock: clock}
}

// Recv records the matching message-edge receive: it merges the
// sender's Lamport clock (guaranteeing recv.Clock > send.Clock) and
// records an event sharing the edge's span id. A zero Ctx (no context
// on the frame) still merges nothing but records the delivery.
func (r *Recorder) Recv(rank, peer int32, ctx Ctx, arg uint64) {
	if r.disabled.Load() {
		return
	}
	clock := r.merge(ctx.Clock)
	r.record(Event{
		Span: ctx.Span, Kind: KindRecv, Phase: PhaseRecv,
		Rank: rank, Peer: peer, Clock: clock, Time: r.now(), Arg: arg,
	})
}

// Len reports how many events have ever been recorded (not the ring
// occupancy).
func (r *Recorder) Len() uint64 { return r.seq.Load() }

// Snapshot collects the ring's current contents in write order. Under
// concurrent writes the snapshot is a consistent set of immutable
// events (each slot load sees one complete event), deduplicated and
// sorted by sequence; at most the ring capacity of trailing events.
func (r *Recorder) Snapshot() []Event {
	head := r.seq.Load()
	n := uint64(len(r.slots))
	lo := uint64(0)
	if head > n {
		lo = head - n
	}
	out := make([]Event, 0, head-lo)
	for s := lo; s < head; s++ {
		if ev := r.slots[s&r.mask].Load(); ev != nil {
			out = append(out, *ev)
		}
	}
	// Writers may have lapped the snapshot loop: drop duplicates and
	// restore write order.
	sortEvents(out)
	dedup := out[:0]
	var last uint64
	for i, ev := range out {
		if i > 0 && ev.Seq == last {
			continue
		}
		dedup = append(dedup, ev)
		last = ev.Seq
	}
	return dedup
}

func sortEvents(evs []Event) {
	// Insertion-friendly shell sort keeps this dependency-free and the
	// input is nearly sorted (ring read in slot order).
	n := len(evs)
	for gap := n / 2; gap > 0; gap /= 2 {
		for i := gap; i < n; i++ {
			ev := evs[i]
			j := i
			for ; j >= gap && evs[j-gap].Seq > ev.Seq; j -= gap {
				evs[j] = evs[j-gap]
			}
			evs[j] = ev
		}
	}
}

// std is the process-wide default recorder: the always-on flight
// recorder every layer writes into. In-process multi-rank worlds share
// it (events carry the rank); one-process-per-rank worlds salt it with
// their rank at startup.
var std = New(DefaultRing)

// Default returns the process-wide recorder.
func Default() *Recorder { return std }

// SetClock installs the timestamp source on the default recorder.
func SetClock(now func() int64) { std.SetClock(now) }

// SetSalt salts the default recorder's span ids (one-process-per-rank).
func SetSalt(salt uint64) { std.SetSalt(salt) }

// IncarnationSalt is the span-id salt of one process of a
// one-process-per-rank world: the rank in the low 12 bits of the 24-bit
// salt field and the low 11 bits of the process id above it. A respawned
// rank is a new process, so its ids stay disjoint from those of the
// incarnation it replaces, whose frames may still be in flight (unless
// the two process ids agree in their low 11 bits). Ranks stay disjoint up
// to 4096.
func IncarnationSalt(rank, pid int) uint64 {
	return uint64(pid&(1<<11-1))<<12 | uint64(rank&(1<<12-1))
}

// SetEnabled flips the default recorder's kill switch (overhead A/B).
func SetEnabled(on bool) { std.SetEnabled(on) }
