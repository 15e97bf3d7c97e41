package ckpt

import (
	"fmt"
	"sync/atomic"
	"time"

	"c3/internal/mpi"
	"c3/internal/stable"
	"c3/internal/statesave"
)

// Policy decides when a checkpoint pragma actually takes a checkpoint. Per
// the paper, "some of these pragmas will force checkpoints to be taken at
// that point, while other pragmas will trigger a checkpoint only if a timer
// has expired or if some other process has initiated a global checkpoint."
// The join-if-others-started rule is always active.
type Policy struct {
	// EveryNthPragma forces a checkpoint at every n-th pragma encountered
	// (0 disables count-based checkpoints).
	EveryNthPragma int
	// Interval takes a checkpoint when this much time has passed since the
	// previous one (0 disables timer-based checkpoints).
	Interval time.Duration
	// AsyncCommit enables the asynchronous commit pipeline: checkpoint
	// sections are captured in memory and written to stable storage by a
	// per-rank background committer, so the application resumes immediately
	// after local capture. A FIFO single-worker pipeline preserves the
	// recovery-line ordering (line k is durable before line k+1 commits),
	// and Restore/Sync fence on the pipeline before reading the store.
	AsyncCommit bool
}

// Config configures a protocol layer.
type Config struct {
	// Store is the stable storage checkpoints are written to.
	Store stable.Store
	// State is the application's registered state (saved at each line).
	State *statesave.Registry
	// Heap, if non-nil, is the checkpointable heap; it is registered as a
	// state section automatically.
	Heap *statesave.Heap
	// Policy controls pragma firing.
	Policy Policy
	// WideHeaders selects the 9-byte full-epoch piggyback codec instead of
	// the 1-byte (3-bit) codec; used by the piggyback ablation.
	WideHeaders bool
	// LogAllIntraSignatures logs the signature of every intra-epoch message
	// received during non-deterministic logging, as in the paper's Figure 4
	// pseudo-code, instead of only wildcard receives as in the paper's
	// prose. The default (false) follows the prose.
	LogAllIntraSignatures bool
	// FullCheckpointEvery enables incremental checkpointing (the paper's
	// Section 5 future work): application-state sections are saved only
	// when their contents changed, with a full snapshot anchoring every
	// k-th line. 0 or 1 disables it (every checkpoint is full).
	FullCheckpointEvery int
}

// Layer is the per-process coordination layer: the C3 runtime that sits
// between the application and the MPI library.
type Layer struct {
	p    *mpi.Proc
	n    int
	rank int
	cfg  Config

	codec Codec
	store stable.Store
	state *statesave.Registry
	heap  *statesave.Heap

	ctrl *mpi.Comm // private communicator for protocol control messages

	mode  Mode
	epoch uint64

	// Per-world-rank counters (paper Section 3.1).
	sent       []uint64 // messages sent this epoch
	received   []uint64 // intra-epoch messages received this epoch
	lateRecvd  []uint64 // late messages received for the line in progress
	earlyRecvd []uint64 // early messages received (next epoch's intra count)

	// Checkpoint-Initiated bookkeeping for the line in progress.
	started      []bool
	startedCount int
	expectedLate []int64 // -1 until the sender's control message arrives

	// Control messages for the *next* line arriving before this process
	// starts it ("at least one other node has started a checkpoint").
	nextStarted      []bool
	nextStartedCount int
	nextExpected     []int64

	earlyReg *EarlyRegistry
	lateReg  *LateRegistry
	wasEarly *WasEarly
	results  *ResultLog

	comms *CommTable
	types *TypeTable
	ops   *OpTable
	reqs  *ReqTable

	world *WComm

	// committer writes every recovery line out; line is the one in
	// progress, between startCheckpoint and commitCheckpoint.
	committer *committer
	line      *commitJob

	// lastDigests is the previous line's section digests (incremental lines).
	lastDigests map[string]uint64

	pragmaCount  int
	lastCkptTime time.Time
	clock        func() time.Time

	// extCheckpoint is the operator's checkpoint-now request (ops control
	// plane): the next pragma fires regardless of policy. Atomic because
	// RequestCheckpoint is called from outside the MPI goroutine.
	extCheckpoint atomic.Bool

	stats Stats
	err   error // sticky fatal protocol error
}

// Stats aggregates protocol activity for the overhead experiments.
type Stats struct {
	Sends          uint64
	Recvs          uint64
	PiggybackBytes uint64
	// ControlMessages counts the Checkpoint-Initiated messages this rank
	// processed, not those sent to it: one that is still unread when the
	// rank finishes is never counted, so the world's sum can fall well
	// short of lines × P × (P−1).
	ControlMessages  uint64
	LateLogged       uint64
	LateLoggedBytes  uint64
	EarlyRecorded    uint64
	SigLogged        uint64
	ReplayedLate     uint64
	PinnedWildcards  uint64
	SuppressedSends  uint64
	ResultsLogged    uint64
	ResultsReplayed  uint64
	CheckpointsTaken uint64
	CheckpointBytes  uint64
	// StoredBytes is what the checkpoints actually occupy at stable
	// storage across the world: the local copy plus replica shards and
	// parity, as reported by the store (stable.StoredSizer). For plain
	// stores it equals CheckpointBytes; for the diskless replicated
	// stores StoredBytes/CheckpointBytes is the codec's storage-overhead
	// ratio (3x for dup +1/+2, (k+m)/k for the erasure codecs).
	StoredBytes uint64
	Restores    uint64
	// FromScratch counts Restore calls that found no complete global line
	// and restarted the computation from the beginning.
	FromScratch     uint64
	StartDuration   time.Duration
	CommitDuration  time.Duration
	RestoreDuration time.Duration
	// Async-commit pipeline counters (zero when Policy.AsyncCommit is off).
	AsyncCommits       uint64        // lines committed by the background worker
	AsyncWriteDuration time.Duration // store time spent off the critical path
	CommitStallLatency time.Duration // app time blocked on the full pipeline
}

// New creates the protocol layer for one rank. It is collective: every rank
// of the world must call New concurrently, because the layer duplicates the
// world communicator for its control plane.
func New(p *mpi.Proc, cfg Config) (*Layer, error) {
	if cfg.Store == nil {
		cfg.Store = stable.NewMemStore()
	}
	if cfg.State == nil {
		cfg.State = statesave.NewRegistry()
	}
	if cfg.Heap != nil {
		if _, ok := cfg.State.Lookup("__heap"); !ok {
			cfg.State.Register(cfg.Heap.Section())
		}
	}
	// Under the virtual schedule engine (cluster.Config.Seed, trace replay)
	// the timer policy reads the engine's logical clock, and the async
	// commit pipeline is driven inline from the rank's own protocol
	// operations instead of a worker goroutine, so durability timing is a
	// pure function of the schedule.
	sched := p.World().Scheduler()
	var clock func() time.Time
	if sched != nil {
		clock = sched.Now
	} else {
		// The single sanctioned wall-clock injection point: every other use
		// in governed code must flow through this clock.
		clock = time.Now //c3lint:allow determinism wall-clock fallback outside the virtual schedule; this IS the injection point
	}
	n := p.Size()
	l := &Layer{
		p:     p,
		n:     n,
		rank:  p.Rank(),
		cfg:   cfg,
		store: cfg.Store,
		state: cfg.State,
		heap:  cfg.Heap,
		mode:  ModeRun,

		sent:         make([]uint64, n),
		received:     make([]uint64, n),
		lateRecvd:    make([]uint64, n),
		earlyRecvd:   make([]uint64, n),
		started:      make([]bool, n),
		expectedLate: newExpected(n),
		nextStarted:  make([]bool, n),
		nextExpected: newExpected(n),

		earlyReg: NewEarlyRegistry(),
		lateReg:  NewLateRegistry(),
		wasEarly: NewWasEarly(),
		results:  NewResultLog(),

		types: NewTypeTable(),
		ops:   NewOpTable(),
		reqs:  NewReqTable(),

		clock:        clock,
		lastCkptTime: clock(),
	}
	if cfg.WideHeaders {
		l.codec = WideCodec{}
	} else {
		l.codec = NarrowCodec{}
	}
	ctrl, err := p.CommWorld().Dup()
	if err != nil {
		return nil, fmt.Errorf("ckpt: create control communicator: %w", err)
	}
	l.ctrl = ctrl
	l.comms = NewCommTable(p.CommWorld())
	l.world = &WComm{l: l, c: p.CommWorld(), handle: HandleWorld}
	l.committer = newCommitter(l.store, l.rank, clock, cfg.Policy.AsyncCommit, sched != nil)
	return l, nil
}

func newExpected(n int) []int64 {
	e := make([]int64, n)
	for i := range e {
		e[i] = -1
	}
	return e
}

// World returns the wrapped world communicator.
func (l *Layer) World() *WComm { return l.world }

// Rank returns the process's world rank.
func (l *Layer) Rank() int { return l.rank }

// Size returns the world size.
func (l *Layer) Size() int { return l.n }

// Mode returns the current protocol mode.
func (l *Layer) Mode() Mode { return l.mode }

// Epoch returns the current epoch number.
func (l *Layer) Epoch() uint64 { return l.epoch }

// Stats returns a copy of the layer's counters, merged with the background
// committer's (which advance concurrently while a commit is in flight).
func (l *Layer) Stats() Stats {
	st := l.stats
	c := l.committer
	c.mu.Lock()
	st.AsyncCommits = c.asyncCommits
	st.AsyncWriteDuration = c.writeDuration
	st.CommitStallLatency = c.stallDuration
	st.StoredBytes = c.storedBytes
	c.mu.Unlock()
	return st
}

// DrainCommits is the commit fence: it blocks until every enqueued
// recovery line is durable at the stable store, returning the first store
// error. It is a no-op without AsyncCommit.
func (l *Layer) DrainCommits() error {
	if err := l.committer.drain(); err != nil {
		return l.fatal(err)
	}
	return nil
}

// AbortCommits models this rank's fail-stop failure for the async
// pipeline: outstanding (not yet durable) lines are discarded, and the
// call returns only once the committer has stopped touching the store, so
// the runtime can wipe node-local storage without a racing write
// resurrecting lost data.
func (l *Layer) AbortCommits() {
	l.committer.abort()
}

// Close tears the layer's background resources down at the end of an
// attempt. When abort is set the pipeline is discarded (fail-stop);
// otherwise it is drained so final checkpoints reach the store.
func (l *Layer) Close(abort bool) error {
	var err error
	if abort {
		l.committer.abort()
	} else {
		err = l.committer.drain()
	}
	l.committer.close()
	if err != nil {
		return l.fatal(err)
	}
	return nil
}

// RequestCheckpoint asks the layer to take a checkpoint at the next pragma
// the application reaches, regardless of policy. Safe to call from any
// goroutine (the ops control plane's POST /checkpoint); the request is
// consumed by the first pragma that honors it. Only this rank needs to be
// asked — the protocol's join-if-others-started rule pulls every other
// rank into the same recovery line.
func (l *Layer) RequestCheckpoint() {
	l.extCheckpoint.Store(true)
}

// State returns the application state registry.
func (l *Layer) State() *statesave.Registry { return l.state }

// Heap returns the checkpointable heap (may be nil).
func (l *Layer) Heap() *statesave.Heap { return l.heap }

// inPeriod reports whether a checkpoint is in progress locally (the
// "checkpointing period" between StartCheckpoint and CommitCheckpoint).
func (l *Layer) inPeriod() bool {
	return l.mode == ModeNonDetLog || l.mode == ModeRecvOnlyLog
}

func (l *Layer) fatal(err error) error {
	if l.err == nil && err != nil {
		l.err = err
	}
	return err
}

// --- Control message handling ---

// checkControl drains pending control messages and applies any mode
// transitions they enable. It corresponds to the "Check for control
// messages" steps in the paper's Figure 4 pseudo-code, and additionally
// collects Recovered notices.
func (l *Layer) checkControl() error {
	if l.err != nil {
		return l.err
	}
	// Advance the virtual commit pipeline (a no-op for the others).
	if err := l.committer.pump(); err != nil {
		return l.fatal(err)
	}
	for {
		st, found, err := l.ctrl.Iprobe(mpi.AnySource, mpi.AnyTag)
		if err != nil {
			return err
		}
		if !found {
			break
		}
		buf := make([]byte, st.Bytes)
		st, err = l.ctrl.RecvBytes(buf, st.Source, st.Tag)
		if err != nil {
			return err
		}
		switch st.Tag {
		case ctrlTagInitiated:
			m, err := decodeCtrlInitiated(buf[:st.Bytes])
			if err != nil {
				return l.fatal(err)
			}
			l.noteInitiated(st.Source, m)
		default:
			return l.fatal(fmt.Errorf("ckpt: unexpected control message tag %d from %d", st.Tag, st.Source))
		}
	}
	return l.applyTransitions()
}

func (l *Layer) noteInitiated(src int, m ctrlInitiated) {
	l.stats.ControlMessages++
	switch {
	case l.inPeriod() && m.Line == l.epoch:
		if !l.started[src] {
			l.started[src] = true
			l.startedCount++
		}
		l.expectedLate[src] = int64(m.SentToYou)
	case m.Line == l.epoch+1:
		// The sender is one line ahead of us; remember its start for when
		// our own pragma fires. This is the "some other process has
		// initiated a global checkpoint" condition.
		if !l.nextStarted[src] {
			l.nextStarted[src] = true
			l.nextStartedCount++
		}
		l.nextExpected[src] = int64(m.SentToYou)
	default:
		l.fatal(fmt.Errorf("ckpt: rank %d: control message for line %d in epoch %d (mode %v)",
			l.rank, m.Line, l.epoch, l.mode))
	}
}

// applyTransitions fires the state-machine edges whose conditions now hold
// (Figure 3): NonDet-Log -> RecvOnly-Log when all nodes have started the
// checkpoint, and RecvOnly-Log -> Run (commit) when all late messages have
// been received.
func (l *Layer) applyTransitions() error {
	if l.mode == ModeNonDetLog && l.startedCount == l.n {
		l.enterRecvOnlyLog()
	}
	if l.mode == ModeRecvOnlyLog && l.lateComplete() {
		return l.commitCheckpoint()
	}
	return nil
}

// enterRecvOnlyLog stops non-deterministic-event logging. Everyone has
// started the checkpoint (directly observed, or inferred from a message
// whose sender had itself stopped logging), so sends from here on cannot be
// early.
func (l *Layer) enterRecvOnlyLog() {
	if l.mode != ModeNonDetLog {
		return
	}
	l.mode = ModeRecvOnlyLog
	// Everyone started line L, so everyone committed line L-1; recovery can
	// never need anything older — garbage-collect it. Behind a commit
	// pipeline of depth d, "everyone started line L" only implies everyone
	// durably committed L-1-d: a peer can hold d protocol-committed lines
	// not yet durable (one at the store, one double-buffered), and a
	// fail-stop failure discards them all, so d extra lines stay and the
	// global recovery line is never garbage-collected out from under a
	// failed peer. With incremental checkpointing the floor is the
	// full-snapshot anchor, so the delta chain stays reachable.
	if d := uint64(l.committer.depth); l.epoch >= d+2 {
		floor := l.epoch - 1 - d
		if k := uint64(l.cfg.FullCheckpointEvery); k > 1 {
			floor = floor - (floor-1)%k
		}
		l.committer.setFloor(l.line, int(floor))
	}
}

// lateComplete reports whether every expected late message has arrived:
// for each process Q, Q's Checkpoint-Initiated message told us how many
// messages it sent us in the previous epoch, and our Late-Received counter
// must reach that number.
func (l *Layer) lateComplete() bool {
	if l.startedCount != l.n {
		return false
	}
	for q := 0; q < l.n; q++ {
		if l.expectedLate[q] < 0 || l.lateRecvd[q] != uint64(l.expectedLate[q]) {
			return false
		}
	}
	return true
}

// --- Send and receive cores ---

func (l *Layer) encodeHeader(dst []byte) []byte {
	h := Header{
		Color:          EpochColor(l.epoch),
		StoppedLogging: l.mode != ModeNonDetLog,
		Epoch:          l.epoch,
		HasEpoch:       true,
	}
	return l.codec.Encode(dst, h)
}

func (l *Layer) noteSent(c *mpi.Comm, destComm int) {
	if wr, err := c.WorldRank(destComm); err == nil {
		l.sent[wr]++
	}
	l.stats.Sends++
}

// planeCtx returns the context id the protocol uses in signatures: the
// point-to-point plane for application messages, the collective plane for
// the layer's own collective streams (so they can never cross-match an
// application wildcard receive).
func planeCtx(c *mpi.Comm, coll bool) uint32 {
	if coll {
		return c.CollCtx()
	}
	return c.Ctx()
}

// sendVia names the substrate entry a wrapped send goes out through.
type sendVia uint8

const (
	viaSend sendVia = iota // a blocking point-to-point send
	viaPost                // a posted point-to-point send (Isend)
	viaColl                // the layer's collective plane
)

// packUser packs count elements of dt from buf into a fresh buffer, behind
// room for the piggyback header. That buffer is the whole message: sendUser
// writes the header into the room and hands the buffer over to mpi
// (Comm.SendPacked), so a wrapped message is packed once and copied no
// further before it reaches the transport.
func (l *Layer) packUser(buf []byte, count int, dt *mpi.Datatype) ([]byte, error) {
	w := l.codec.Width()
	return dt.AppendPacked(make([]byte, w, w+max(count, 0)*dt.Size()), buf, count)
}

// sendUser transmits a message packUser built, with the protocol applied:
// check control messages, suppress Was-Early re-sends during recovery,
// piggyback the header, and count the send (paper Figure 4,
// chkpt_MPI_Send). The header is written at the last moment, because the
// control messages checked first may move the epoch.
func (l *Layer) sendUser(c *mpi.Comm, msg []byte, destComm, tag int, via sendVia) error {
	coll := via == viaColl
	if l.err != nil {
		return l.err
	}
	if err := l.checkControl(); err != nil {
		return err
	}
	if l.mode == ModeRestore && l.wasEarly.Match(planeCtx(c, coll), tag, destComm) {
		// The receiver's checkpoint already includes this message; suppress
		// the re-send. The send still counts toward Sent-Count so the next
		// line's late-message accounting balances with the receiver's
		// restored Received counter.
		l.noteSent(c, destComm)
		l.stats.SuppressedSends++
		l.maybeFinishRestore()
		return nil
	}
	l.encodeHeader(msg[:0]) // in place: packUser left the room
	var err error
	switch via {
	case viaColl:
		err = c.SendPackedColl(msg, destComm, tag)
	case viaPost:
		err = c.PostPacked(msg, destComm, tag)
	default:
		err = c.SendPacked(msg, destComm, tag)
	}
	if err != nil {
		return err
	}
	l.noteSent(c, destComm)
	l.stats.PiggybackBytes += uint64(l.codec.Width())
	return nil
}

// recvResult describes a protocol-level receive completion.
type recvResult struct {
	status        mpi.Status // user view: Bytes excludes the header
	payload       []byte     // packed user payload: a view of the message, or the log's copy
	class         Class
	lateSeq       uint64 // valid when class == ClassLate
	replay        bool   // satisfied from the Late-Message-Registry
	senderStopped bool   // sender's stopped-logging piggyback bit
}

// recvUser receives one message with the protocol applied: replay from the
// Late-Message-Registry during recovery, pin wildcards from logged
// signatures, classify real arrivals and update registries and counters
// (paper Figure 4, chkpt_MPI_Recv).
func (l *Layer) recvUser(c *mpi.Comm, capBytes, src, tag int, coll bool) (recvResult, error) {
	if l.err != nil {
		return recvResult{}, l.err
	}
	if err := l.checkControl(); err != nil {
		return recvResult{}, err
	}
	wildcard := src == mpi.AnySource || tag == mpi.AnyTag
	if l.mode == ModeRestore {
		if e := l.lateReg.TakeMatch(planeCtx(c, coll), src, tag); e != nil {
			if e.Kind == LateData {
				l.stats.ReplayedLate++
				res := recvResult{
					status:  mpi.Status{Source: int(e.Sig.Src), Tag: int(e.Sig.Tag), Bytes: len(e.Data)},
					payload: e.Data,
					class:   ClassLate,
					lateSeq: e.Seq,
					replay:  true,
				}
				if len(e.Data) > capBytes {
					return res, fmt.Errorf("%w: replayed %d bytes into %d-byte buffer", mpi.ErrTruncate, len(e.Data), capBytes)
				}
				l.maybeFinishRestore()
				return res, nil
			}
			// IntraSig: restrict the wildcard to the original match and
			// perform a real receive — the re-executing sender re-sends it.
			src, tag = int(e.Sig.Src), int(e.Sig.Tag)
			l.stats.PinnedWildcards++
			l.maybeFinishRestore()
		}
	}
	var st mpi.Status
	var msg []byte
	var err error
	if coll {
		st, msg, err = c.RecvPackedColl(src, tag)
	} else {
		st, msg, err = c.RecvPacked(src, tag)
	}
	if err != nil {
		return recvResult{}, err
	}
	res, err := l.finishRecv(c, st, msg, capBytes, wildcard, coll)
	if err != nil {
		return res, err
	}
	// Blocking receives have no request-table entry to record; the
	// transition (possibly a commit) can run immediately.
	return res, l.applyTransitions()
}

// finishRecv decodes the header of an arrived message, msg, and performs
// the classification bookkeeping. It is shared by blocking receives and
// non-blocking completions. msg is the message's own bytes (a view of its
// frame, mpi.Comm.IrecvPacked), so the payload it returns is a view too,
// unpacked by the caller straight into the user's buffer. A payload longer
// than capBytes is refused before it is accounted.
func (l *Layer) finishRecv(c *mpi.Comm, st mpi.Status, msg []byte, capBytes int, wildcard, coll bool) (recvResult, error) {
	w := l.codec.Width()
	if st.Bytes < w {
		return recvResult{}, l.fatal(fmt.Errorf("ckpt: message without piggyback header (%d bytes)", st.Bytes))
	}
	if st.Bytes-w > capBytes {
		return recvResult{}, fmt.Errorf("%w: %d bytes into %d-byte buffer", mpi.ErrTruncate, st.Bytes-w, capBytes)
	}
	hdr, err := l.codec.Decode(msg)
	if err != nil {
		return recvResult{}, l.fatal(err)
	}
	payload := msg[w:]
	ust := mpi.Status{Source: st.Source, Tag: st.Tag, Bytes: st.Bytes - w}
	cls, seq, err := l.accountRecv(c, ust, hdr, payload, wildcard, coll)
	if err != nil {
		return recvResult{}, err
	}
	l.stats.Recvs++
	return recvResult{status: ust, payload: payload, class: cls, lateSeq: seq, senderStopped: hdr.StoppedLogging}, nil
}

// accountRecv classifies a received message and updates counters and
// registries.
func (l *Layer) accountRecv(c *mpi.Comm, st mpi.Status, hdr Header, payload []byte, wildcard, coll bool) (Class, uint64, error) {
	cls := ClassifyColors(hdr.Color, EpochColor(l.epoch))
	if hdr.HasEpoch {
		// Wide codec: validate the color arithmetic against exact epochs.
		exact, err := ClassifyEpochs(hdr.Epoch, l.epoch)
		if err != nil {
			return 0, 0, l.fatal(err)
		}
		if exact != cls {
			return 0, 0, l.fatal(fmt.Errorf("ckpt: color classification %v disagrees with epochs (%d vs %d)", cls, hdr.Epoch, l.epoch))
		}
	}
	srcWorld, err := c.WorldRank(st.Source)
	if err != nil {
		return 0, 0, l.fatal(err)
	}
	sig := Signature{Ctx: planeCtx(c, coll), Tag: int32(st.Tag), Src: int32(st.Source)}
	var seq uint64
	switch cls {
	case ClassIntra:
		l.received[srcWorld]++
		if l.mode == ModeNonDetLog {
			if hdr.StoppedLogging {
				// A process that stopped logging knows every process has
				// started the checkpoint; we must stop logging too, or the
				// saved state could depend on an unlogged event (Section 3.1).
				l.enterRecvOnlyLog()
			} else if wildcard || l.cfg.LogAllIntraSignatures {
				seq = l.lateReg.AddSig(sig)
				l.stats.SigLogged++
			}
		}
	case ClassEarly:
		l.earlyRecvd[srcWorld]++
		l.earlyReg.Add(sig, srcWorld, c.Rank(), len(payload))
		l.stats.EarlyRecorded++
		if l.mode == ModeNonDetLog && hdr.StoppedLogging {
			l.enterRecvOnlyLog()
		}
	case ClassLate:
		if !l.inPeriod() {
			return 0, 0, l.fatal(fmt.Errorf("ckpt: rank %d received late message %v outside a checkpoint period (mode %v)", l.rank, sig, l.mode))
		}
		l.lateRecvd[srcWorld]++
		if exp := l.expectedLate[srcWorld]; exp >= 0 && l.lateRecvd[srcWorld] > uint64(exp) {
			return 0, 0, l.fatal(fmt.Errorf("ckpt: rank %d received %d late messages from %d, expected %d", l.rank, l.lateRecvd[srcWorld], srcWorld, exp))
		}
		seq = l.lateReg.AddData(sig, payload)
		l.stats.LateLogged++
		l.stats.LateLoggedBytes += uint64(len(payload))
	}
	// NOTE: deliberately no applyTransitions here. If this late message is
	// the last one expected, the transition commits the checkpoint — and
	// the request table is serialized at commit. A non-blocking completion
	// must first record how its request completed (completeRecvEntry), or
	// the table would save the request as still pending and recovery would
	// re-post a real receive instead of replaying the logged payload,
	// shifting the whole stream by one message. Callers run the transition
	// once the completion is fully recorded.
	return cls, seq, nil
}

// maybeFinishRestore completes recovery when both registries (and the
// collective result log) have drained: "When the Was-Early-Registry and the
// Late-Message-Registry are empty, recovery is complete, and the process
// transitions to the Run state."
func (l *Layer) maybeFinishRestore() {
	if l.mode != ModeRestore {
		return
	}
	if !l.lateReg.Empty() || !l.wasEarly.Empty() || !l.results.Empty() || l.reqs.AnyReplayPending() {
		return
	}
	l.finishRestore()
}

func (l *Layer) finishRestore() {
	l.mode = ModeRun
}

// SyncTag is the user tag Sync exchanges its tokens on. It is the largest
// user tag; applications that use Sync should avoid it.
const SyncTag = mpi.MaxUserTag

// Sync is a global commit fence: two rounds of full pairwise token
// exchange on the world communicator. Because the transport is FIFO per
// sender/receiver pair, finishing round one guarantees a process has
// received (and, at its next protocol action, processed) every control
// message its peers sent before entering Sync; round-two tokens are only
// sent after round one completes, so when Sync returns, every peer has all
// the information its pending checkpoint commit needs — if all processes
// have started a checkpoint and the application has drained its late
// messages, the line is committed on every rank. Checkpoint commit never
// requires this (the protocol is non-blocking); Sync exists for tests and
// experiments that need a deterministic "line is committed everywhere"
// point.
func (l *Layer) Sync() error {
	wc := l.world
	n, r := l.n, l.rank
	var buf [0]byte
	for round := 0; round < 2; round++ {
		for q := 0; q < n; q++ {
			if q == r {
				continue
			}
			if err := wc.SendBytes(nil, q, SyncTag); err != nil {
				return err
			}
		}
		for q := 0; q < n; q++ {
			if q == r {
				continue
			}
			if _, err := wc.RecvBytes(buf[:], q, SyncTag); err != nil {
				return err
			}
		}
		if err := l.checkControl(); err != nil {
			return err
		}
		// With the async pipeline, "committed" additionally means durable at
		// the store. Fencing before the round-two tokens go out makes those
		// tokens certify durability: a process that has collected every
		// round-two token knows all its peers' pending lines are on stable
		// storage.
		if err := l.DrainCommits(); err != nil {
			return err
		}
	}
	return nil
}
