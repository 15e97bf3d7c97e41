package ckpt

import (
	"fmt"
	"maps"
	"slices"

	"c3/internal/mpi"
	"c3/internal/stable"
	"c3/internal/trace"
	"c3/internal/wire"
)

// Section names within a checkpoint version.
const (
	secApp      = "app"      // application state (statesave registry dump)
	secAppDelta = "appdelta" // the registry image of a delta line's changed sections
	secAppHead  = "apphead"  // a delta line's base line and live section names
	secMPI      = "mpi"      // basic MPI state + handle tables + counters
	secEarly    = "early"    // Early-Message-Registry (written at start)
	secLate     = "late"     // Late-Message-Registry (written at commit)
	secResults  = "results"  // collective result log (written at commit)
	secRequests = "requests" // request table (written at commit)
)

// Checkpoint is the pragma: the application calls it at every potential
// checkpoint location (#pragma ccc checkpoint). With force, a checkpoint is
// taken unconditionally; otherwise the policy and the
// someone-else-started-a-checkpoint condition decide (Figure 5).
func (l *Layer) Checkpoint(force bool) error {
	if l.err != nil {
		return l.err
	}
	l.pragmaCount++
	if err := l.checkControl(); err != nil {
		return err
	}
	if l.mode != ModeRun {
		// A pragma reached while a checkpoint is still completing (or
		// during recovery) does not start a new one; recovery lines never
		// cross.
		return nil
	}
	fire := force
	if !fire && l.cfg.Policy.EveryNthPragma > 0 && l.pragmaCount%l.cfg.Policy.EveryNthPragma == 0 {
		fire = true
	}
	if !fire && l.cfg.Policy.Interval > 0 && l.clock().Sub(l.lastCkptTime) >= l.cfg.Policy.Interval {
		fire = true
	}
	if !fire && l.extCheckpoint.CompareAndSwap(true, false) {
		fire = true // an operator asked for a checkpoint now (ops plane)
	}
	if !fire && l.nextStartedCount > 0 {
		fire = true // join a checkpoint another process initiated
	}
	if !fire {
		return nil
	}
	if err := l.startCheckpoint(); err != nil {
		return err
	}
	// Figure 5's post-start shortcut: if every process already started (we
	// were the last) and no late messages are expected, the checkpoint can
	// commit immediately.
	return l.applyTransitions()
}

// startCheckpoint is chkpt_StartCheckpoint (Figure 5): advance the epoch,
// save application and MPI state plus the Early-Message-Registry, send
// Checkpoint-Initiated control messages carrying the Sent-Counts, and
// rotate the receive counters.
func (l *Layer) startCheckpoint() error {
	begin := l.clock()
	l.epoch++
	sp := trace.Default().Begin(int32(l.rank), trace.KindSerialize, 0, l.epoch)
	job, err := l.committer.begin(l.epoch)
	if err != nil {
		sp.End(0)
		return l.fatal(err)
	}
	defer func() { sp.End(job.bytes) }()
	l.line = job

	// Prepare counters first (Figure 5): "Copy Received-Counters to
	// Late-Received-Counters; copy Early-Received-Counters to
	// Received-Counters; reset Early-Received-Counters." The completion
	// condition is then LateReceived[Q] == SentCount_Q for every Q. The
	// rotation happens before the MPI state is saved so that recovery
	// restores the new epoch's Received counters.
	for q := 0; q < l.n; q++ {
		l.lateRecvd[q] = l.received[q]
		l.received[q], l.earlyRecvd[q] = l.earlyRecvd[q], 0
	}

	// Save application state: the registry's parts, views of the
	// registered memory that the line writes where they lie or copies.
	if err := l.writeAppState(job); err != nil {
		return l.fatal(err)
	}

	// Save basic MPI state and the handle tables, then save and reset the
	// Early-Message-Registry.
	if err := job.write(secMPI, l.saveMPIState()); err != nil {
		return l.fatal(err)
	}
	if err := job.write(secEarly, l.earlyReg.Serialize()); err != nil {
		return l.fatal(err)
	}
	l.stats.CheckpointBytes += job.bytes
	l.earlyReg.Reset()

	// Send Checkpoint-Initiated to every other process Q with Sent-Count[Q].
	for q := 0; q < l.n; q++ {
		if q == l.rank {
			continue
		}
		m := ctrlInitiated{Line: job.line, SentToYou: l.sent[q]}
		if err := l.ctrl.SendBytes(m.encode(), q, ctrlTagInitiated); err != nil {
			return l.fatal(err)
		}
	}

	// Self-messages never pass through the control plane: account for them
	// directly (an Isend to self before the line received after it is a
	// legitimate late message).
	l.started = make([]bool, l.n)
	l.startedCount = 0
	l.expectedLate = newExpected(l.n)
	l.started[l.rank] = true
	l.startedCount++
	l.expectedLate[l.rank] = int64(l.sent[l.rank])
	// Merge control messages that arrived before we started this line.
	for q := 0; q < l.n; q++ {
		if l.nextStarted[q] {
			l.started[q] = true
			l.startedCount++
			l.expectedLate[q] = l.nextExpected[q]
		}
		l.sent[q] = 0
	}
	l.nextStarted = make([]bool, l.n)
	l.nextStartedCount = 0
	l.nextExpected = newExpected(l.n)

	l.reqs.BeginPeriod()
	l.results.Reset()
	// Begin the period with an empty Late-Message-Registry. After a
	// recovery, the registry still holds the previous line's replayed
	// (consumed) entries — maybeFinishRestore only requires them consumed,
	// not removed. Without this reset they are serialized into the line
	// committed below and a second recovery replays them again, delivering
	// message data that is already part of the restored state (the
	// recovery-line checksum divergence the schedule explorer pinned down).
	l.lateReg.Reset()
	l.mode = ModeNonDetLog
	l.stats.CheckpointsTaken++
	l.lastCkptTime = l.clock()
	l.stats.StartDuration += l.clock().Sub(begin)
	return nil
}

// writeAppState writes a line's application state. A full line is the
// registry image of every section. With incremental checkpointing (the
// paper's Section 5 future work) a full line anchors every k-th line, and
// the others are delta lines: the registry image of only the sections
// whose digest changed since the previous line, beside a header naming
// that base line and every section live at this one.
func (l *Layer) writeAppState(job *commitJob) error {
	if k := uint64(l.cfg.FullCheckpointEvery); k > 1 {
		prev, cur := l.lastDigests, l.state.Digests()
		l.lastDigests = cur
		if prev != nil && (job.line-1)%k != 0 {
			if err := job.write(secAppHead, encodeDeltaHead(job.line-1, l.state.SortedNames())); err != nil {
				return err
			}
			return job.write(secAppDelta, l.state.SaveParts(func(name string) bool {
				d, ok := prev[name]
				return !ok || d != cur[name]
			})...)
		}
	}
	return job.write(secApp, l.state.SaveParts(nil)...)
}

// encodeDeltaHead is a delta line's header: its base line and the names of
// the sections live at it.
func encodeDeltaHead(base uint64, live []string) []byte {
	w := wire.NewWriter(64)
	w.U64(base)
	w.U32(uint32(len(live)))
	for _, name := range live {
		w.String(name)
	}
	return w.Bytes()
}

// decodeDeltaHead parses encodeDeltaHead's bytes.
func decodeDeltaHead(data []byte) (base uint64, live map[string]bool, err error) {
	r := wire.NewReader(data)
	base = r.U64()
	n := r.Count(4) // minimum bytes per name
	live = make(map[string]bool, n)
	for i := 0; i < n; i++ {
		live[r.String()] = true
	}
	if r.Err() != nil {
		return 0, nil, fmt.Errorf("ckpt: corrupt incremental header: %w", r.Err())
	}
	return base, live, nil
}

// commitCheckpoint is chkpt_CommitCheckpoint (Figure 5): save the
// Late-Message-Registry (plus the collective result log and the request
// table, whose contents are only known once all late messages are in),
// commit the version, and return to Run mode.
func (l *Layer) commitCheckpoint() error {
	begin := l.clock()
	job := l.line
	if job == nil {
		return l.fatal(fmt.Errorf("ckpt: commit without open checkpoint"))
	}
	l.line = nil
	lateImg := l.lateReg.Serialize()
	resImg := l.results.Serialize()
	reqImg := l.reqs.Serialize(job.line)
	l.stats.CheckpointBytes += uint64(len(lateImg) + len(resImg) + len(reqImg))
	// The committer finishes the line here, or queues it behind the lines
	// in flight; either way line k is durable before line k+1 commits.
	if err := l.committer.commit(job,
		namedSection{name: secLate, data: lateImg},
		namedSection{name: secResults, data: resImg},
		namedSection{name: secRequests, data: reqImg}); err != nil {
		return l.fatal(err)
	}
	l.lateReg.Reset()
	l.results.Reset()
	l.reqs.EndPeriod()
	l.mode = ModeRun
	l.stats.CommitDuration += l.clock().Sub(begin)
	return nil
}

// saveMPIState serializes the "basic MPI state" (Figure 5): world shape,
// processor name, epoch, attached buffers, the handle tables, the rotated
// receive counters, and the request-ID watermark.
func (l *Layer) saveMPIState() []byte {
	w := wire.NewWriter(512)
	w.Int(l.n)
	w.Int(l.rank)
	w.String(l.p.Name())
	w.U64(l.epoch)
	w.Int(l.p.AttachedBuffer())
	w.U64s(l.received)
	w.Bytes32(l.comms.Serialize())
	w.Bytes32(l.types.Serialize())
	w.Bytes32(l.ops.Serialize())
	return w.Bytes()
}

// Restore implements chkpt_RestoreCheckpoint (Figure 5). It is collective
// across all ranks: it finds the most recent recovery line committed on
// every node via a global reduction, loads the local checkpoint, rebuilds
// MPI state, redistributes the Early-Message-Registry to form the
// Was-Early-Registries, and enters Restore mode. It returns false if no
// complete global line exists (the computation restarts from the
// beginning).
func (l *Layer) Restore() (bool, error) {
	begin := l.clock()
	sp := trace.Default().Begin(int32(l.rank), trace.KindRestore, 0, 0)
	restored := false
	var restoredLine uint64
	defer func() {
		if restored {
			sp.End(restoredLine)
		} else {
			sp.End(0)
		}
	}()
	// Commit fence: the global reduction must not observe the store while an
	// asynchronously captured line is still in flight, or ranks would
	// disagree on what "last committed" means.
	if err := l.DrainCommits(); err != nil {
		return false, err
	}
	last, ok, err := l.store.LastCommitted(l.rank)
	if err != nil {
		return false, l.fatal(err)
	}
	mine := int64(-1)
	if ok {
		mine = int64(last)
	}
	in := mpi.Int64Bytes([]int64{mine})
	out := make([]byte, 8)
	if err := l.ctrl.Allreduce(in, out, 1, mpi.TypeInt64, mpi.OpMin); err != nil {
		return false, l.fatal(err)
	}
	line := mpi.BytesInt64s(out)[0]
	if line < 1 {
		// No complete global line: the world restarts from scratch — a new
		// execution generation whose line numbers restart at 1. Checkpoints
		// left over from the dead generation must go now, or a rank that
		// keeps (say) an old line 1 while failing before re-committing it
		// would later pair it with its peers' re-executed line 1.
		if err := l.store.Truncate(l.rank, 0); err != nil {
			return false, l.fatal(fmt.Errorf("ckpt: truncate dead generation: %w", err))
		}
		l.stats.FromScratch++
		return false, nil
	}

	// Truncate the dead generation: every version above the agreed line was
	// committed by the execution that just failed (or an even older one) and
	// will be re-written by the re-execution. A rank whose failure discarded
	// in-flight async commits can hold an OLDER generation's checkpoint at
	// the same version number than its peers — without truncation, a later
	// recovery would assemble a recovery line from mixed generations, whose
	// registries and states are mutually inconsistent (wrong Was-Early
	// suppressions deadlock the world; stale payload replays diverge it).
	if err := l.store.Truncate(l.rank, int(line)); err != nil {
		return false, l.fatal(fmt.Errorf("ckpt: truncate above line %d: %w", line, err))
	}

	snap, err := l.store.Open(l.rank, int(line))
	if err != nil {
		return false, l.fatal(fmt.Errorf("ckpt: open checkpoint %d: %w", line, err))
	}
	defer snap.Close()

	// Restore basic MPI state and handle tables.
	mpiImg, err := snap.ReadSection(secMPI)
	if err != nil {
		return false, l.fatal(err)
	}
	if err := l.loadMPIState(mpiImg); err != nil {
		return false, l.fatal(err)
	}

	// Restore application state (following the incremental chain back to
	// its full-snapshot anchor if needed).
	if err := l.loadAppState(snap, uint64(line)); err != nil {
		return false, l.fatal(err)
	}

	// Restore message registries.
	lateImg, err := snap.ReadSection(secLate)
	if err != nil {
		return false, l.fatal(err)
	}
	if l.lateReg, err = LoadLateRegistry(lateImg); err != nil {
		return false, l.fatal(err)
	}
	resImg, err := snap.ReadSection(secResults)
	if err != nil {
		return false, l.fatal(err)
	}
	if l.results, err = LoadResultLog(resImg); err != nil {
		return false, l.fatal(err)
	}
	earlyImg, err := snap.ReadSection(secEarly)
	if err != nil {
		return false, l.fatal(err)
	}
	earlyAtLine, err := LoadEarlyRegistry(earlyImg)
	if err != nil {
		return false, l.fatal(err)
	}

	// Restore the request table (crossing non-blocking requests).
	reqImg, err := snap.ReadSection(secRequests)
	if err != nil {
		return false, l.fatal(err)
	}
	if err := l.restoreRequests(reqImg); err != nil {
		return false, l.fatal(err)
	}

	// Distribute Early-Message-Registry entries to their senders so they
	// can suppress the re-sends, forming each sender's Was-Early-Registry.
	l.wasEarly = NewWasEarly()
	l.wasEarly.AddItems(earlyAtLine.DistributionFor(l.rank)) // self-sends
	for q := 0; q < l.n; q++ {
		if q == l.rank {
			continue
		}
		items := earlyAtLine.DistributionFor(q)
		if err := l.ctrl.SendBytes(encodeSuppressItems(items), q, ctrlTagSuppress); err != nil {
			return false, l.fatal(err)
		}
	}
	var scratch []byte // sized by each list as it arrives
	for q := 0; q < l.n; q++ {
		if q == l.rank {
			continue
		}
		st, err := l.ctrl.Probe(q, ctrlTagSuppress)
		if err != nil {
			return false, l.fatal(err)
		}
		scratch = slices.Grow(scratch[:0], st.Bytes)[:st.Bytes]
		if st, err = l.ctrl.RecvBytes(scratch, q, ctrlTagSuppress); err != nil {
			return false, l.fatal(err)
		}
		items, err := decodeSuppressItems(scratch[:st.Bytes])
		if err != nil {
			return false, l.fatal(err)
		}
		l.wasEarly.AddItems(items)
	}

	// Reset transient protocol state for the new execution.
	l.earlyReg.Reset()
	l.sent = make([]uint64, l.n)
	l.lateRecvd = make([]uint64, l.n)
	l.earlyRecvd = make([]uint64, l.n)
	l.started = make([]bool, l.n)
	l.startedCount = 0
	l.expectedLate = newExpected(l.n)
	l.nextStarted = make([]bool, l.n)
	l.nextStartedCount = 0
	l.nextExpected = newExpected(l.n)
	l.line = nil
	l.mode = ModeRestore
	l.stats.Restores++
	l.stats.RestoreDuration += l.clock().Sub(begin)
	l.lastCkptTime = l.clock()
	restored, restoredLine = true, uint64(line)
	l.maybeFinishRestore()
	return true, nil
}

// loadAppState restores the registry from line's snapshot. A full line
// loads whole. For a delta line each section live at it loads from the
// newest line of its chain that holds the section, walking back through
// the base lines to the full anchor; a section not live at line is never
// loaded, so one unregistered since an older line of the chain stays as
// the prologue registered it (the tombstone rule).
func (l *Layer) loadAppState(snap stable.Snapshot, line uint64) error {
	var live map[string]bool // the sections live at a delta line
	var load func(name string) bool
	if head, err := snap.ReadSection(secAppHead); err == nil {
		if _, live, err = decodeDeltaHead(head); err != nil {
			return err
		}
		pending := maps.Clone(live)
		load = func(name string) bool {
			if !pending[name] {
				return false
			}
			delete(pending, name)
			return true
		}
	}
	base, err := l.loadLine(snap, line, load)
	for err == nil && base > 0 {
		s, oerr := l.store.Open(l.rank, int(base))
		if oerr != nil {
			return fmt.Errorf("ckpt: incremental base %d missing: %w", base, oerr)
		}
		base, err = l.loadLine(s, base, load)
		_ = s.Close() // read-only snapshot; the load's err is what matters
	}
	if err != nil || l.cfg.FullCheckpointEvery <= 1 {
		return err
	}
	// The next delta diffs against the sections live at the restored line.
	l.lastDigests = l.state.Digests()
	if live != nil {
		maps.DeleteFunc(l.lastDigests, func(name string, _ uint64) bool { return !live[name] })
	}
	return nil
}

// loadLine loads the sections load admits (every one with load nil) from
// one line of a chain, and returns its base line: zero for a full line.
func (l *Layer) loadLine(snap stable.Snapshot, line uint64, load func(name string) bool) (base uint64, err error) {
	name := secApp
	if head, herr := snap.ReadSection(secAppHead); herr == nil {
		if base, _, err = decodeDeltaHead(head); err != nil {
			return 0, err
		}
		if base == 0 || base >= line {
			return 0, fmt.Errorf("ckpt: checkpoint %d names base line %d", line, base)
		}
		name = secAppDelta
	}
	sec, err := snap.OpenSection(name)
	if err != nil {
		return 0, fmt.Errorf("ckpt: checkpoint %d has neither full nor incremental app state: %w", line, err)
	}
	err = l.state.LoadFrom(sec, sec.Size(), load)
	if cerr := sec.Close(); err == nil {
		err = cerr
	}
	return base, err
}

func (l *Layer) loadMPIState(data []byte) error {
	r := wire.NewReader(data)
	n := r.Int()
	rank := r.Int()
	name := r.String()
	epoch := r.U64()
	attached := r.Int()
	received := r.U64s()
	commImg := r.Bytes32()
	typeImg := r.Bytes32()
	opImg := r.Bytes32()
	if err := r.Err(); err != nil {
		return fmt.Errorf("ckpt: corrupt MPI state: %w", err)
	}
	if n != l.n || rank != l.rank {
		return fmt.Errorf("ckpt: checkpoint is for rank %d of %d, this process is rank %d of %d", rank, n, l.rank, l.n)
	}
	_ = name // informational; processor identity may change across restarts
	l.epoch = epoch
	if attached > 0 {
		if err := l.p.BufferAttach(attached); err != nil {
			return err
		}
	}
	if len(received) == l.n {
		copy(l.received, received)
	}
	if err := l.comms.Restore(commImg); err != nil {
		return err
	}
	if err := l.types.Restore(typeImg); err != nil {
		return err
	}
	return l.ops.Verify(opImg)
}
