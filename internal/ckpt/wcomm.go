package ckpt

import (
	"fmt"

	"c3/internal/mpi"
)

// WComm is a protocol-wrapped communicator: the application-facing
// equivalent of an MPI communicator whose every operation passes through
// the coordination layer, exactly as the C3 runtime intercepts "all calls
// from the instrumented application program to the MPI library".
type WComm struct {
	l      *Layer
	c      *mpi.Comm
	handle int
}

// Rank returns the calling process's rank in this communicator.
func (w *WComm) Rank() int { return w.c.Rank() }

// Size returns the communicator size.
func (w *WComm) Size() int { return w.c.Size() }

// Handle returns the communicator's table handle (stable across restarts).
func (w *WComm) Handle() int { return w.handle }

// Layer returns the owning protocol layer.
func (w *WComm) Layer() *Layer { return w.l }

// Dup duplicates the communicator; the creation is recorded in the
// communicator table so it can be replayed on recovery. Collective.
func (w *WComm) Dup() (*WComm, error) {
	h, err := w.l.comms.Dup(w.handle)
	if err != nil {
		return nil, err
	}
	e, _ := w.l.comms.Get(h)
	return &WComm{l: w.l, c: e.Comm, handle: h}, nil
}

// Split splits the communicator by color and key, recording the recipe.
// Callers passing a negative color receive nil. Collective.
func (w *WComm) Split(color, key int) (*WComm, error) {
	h, err := w.l.comms.Split(w.handle, color, key)
	if err != nil {
		return nil, err
	}
	e, _ := w.l.comms.Get(h)
	if e.Comm == nil {
		return nil, nil
	}
	return &WComm{l: w.l, c: e.Comm, handle: h}, nil
}

// CommByHandle returns the wrapped communicator for a table handle, for
// applications that persist handles in their checkpointed state.
func (l *Layer) CommByHandle(h int) (*WComm, error) {
	e, ok := l.comms.Get(h)
	if !ok || e.Comm == nil {
		return nil, fmt.Errorf("ckpt: no communicator with handle %d", h)
	}
	return &WComm{l: l, c: e.Comm, handle: h}, nil
}

func checkWrappedTag(tag int) error {
	if tag < 0 || tag > mpi.MaxUserTag {
		return fmt.Errorf("%w: tag %d outside [0,%d]", mpi.ErrInvalid, tag, mpi.MaxUserTag)
	}
	return nil
}

// --- Blocking point-to-point ---

// Send transmits count elements of dt from buf to dest with the protocol
// applied.
func (w *WComm) Send(buf []byte, count int, dt *mpi.Datatype, dest, tag int) error {
	if err := checkWrappedTag(tag); err != nil {
		return err
	}
	msg, err := w.l.packUser(buf, count, dt)
	if err != nil {
		return err
	}
	return w.l.sendUser(w.c, msg, dest, tag, viaSend)
}

// SendBytes sends a raw byte payload.
func (w *WComm) SendBytes(data []byte, dest, tag int) error {
	return w.Send(data, len(data), mpi.TypeByte, dest, tag)
}

// Recv receives into buf; src may be mpi.AnySource and tag mpi.AnyTag.
func (w *WComm) Recv(buf []byte, count int, dt *mpi.Datatype, src, tag int) (mpi.Status, error) {
	res, err := w.l.recvUser(w.c, count*dt.Size(), src, tag, false)
	if err == nil {
		err = deliverPayload(res.payload, buf, dt)
	}
	return res.status, err
}

// RecvBytes receives a raw byte payload.
func (w *WComm) RecvBytes(buf []byte, src, tag int) (mpi.Status, error) {
	res, err := w.l.recvUser(w.c, len(buf), src, tag, false)
	if err != nil {
		return res.status, err
	}
	copy(buf, res.payload)
	return res.status, nil
}

// Sendrecv performs a combined exchange. The receive is posted first, so
// self-exchanges and symmetric neighbor exchanges cannot deadlock.
func (w *WComm) Sendrecv(
	sendBuf []byte, sendCount int, sendType *mpi.Datatype, dest, sendTag int,
	recvBuf []byte, recvCount int, recvType *mpi.Datatype, src, recvTag int,
) (mpi.Status, error) {
	rid, err := w.Irecv(recvBuf, recvCount, recvType, src, recvTag)
	if err != nil {
		return mpi.Status{}, err
	}
	if err := w.Send(sendBuf, sendCount, sendType, dest, sendTag); err != nil {
		return mpi.Status{}, err
	}
	return w.Wait(rid)
}

// Probe blocks until a matching message is available (or, during recovery,
// a matching Late-Message-Registry entry exists) and returns its status.
func (w *WComm) Probe(src, tag int) (mpi.Status, error) {
	l := w.l
	if err := l.checkControl(); err != nil {
		return mpi.Status{}, err
	}
	if l.mode == ModeRestore {
		if e := l.lateReg.PeekMatch(w.c.Ctx(), src, tag); e != nil && e.Kind == LateData {
			return mpi.Status{Source: int(e.Sig.Src), Tag: int(e.Sig.Tag), Bytes: len(e.Data)}, nil
		}
	}
	st, err := w.c.Probe(src, tag)
	if err != nil {
		return st, err
	}
	st.Bytes -= l.codec.Width()
	return st, nil
}

// Iprobe polls for a matching message without blocking.
func (w *WComm) Iprobe(src, tag int) (mpi.Status, bool, error) {
	l := w.l
	if err := l.checkControl(); err != nil {
		return mpi.Status{}, false, err
	}
	if l.mode == ModeRestore {
		if e := l.lateReg.PeekMatch(w.c.Ctx(), src, tag); e != nil && e.Kind == LateData {
			return mpi.Status{Source: int(e.Sig.Src), Tag: int(e.Sig.Tag), Bytes: len(e.Data)}, true, nil
		}
	}
	st, found, err := w.c.Iprobe(src, tag)
	if err != nil || !found {
		return st, found, err
	}
	st.Bytes -= l.codec.Width()
	return st, true, nil
}

// --- Non-blocking communication (paper Section 4.1) ---

// Isend starts a non-blocking send and returns a request handle from the
// indirection table. The send protocol runs at initiation: "non-blocking
// send operations execute the send protocol described in Section 3". The
// message is posted (mpi.Comm.PostPacked): it owns its bytes, so the
// request completes at once while a socket transport may still be
// writing its frame.
func (w *WComm) Isend(buf []byte, count int, dt *mpi.Datatype, dest, tag int) (int, error) {
	if err := checkWrappedTag(tag); err != nil {
		return 0, err
	}
	msg, err := w.l.packUser(buf, count, dt)
	if err != nil {
		return 0, err
	}
	if err := w.l.sendUser(w.c, msg, dest, tag, viaPost); err != nil {
		return 0, err
	}
	e := w.l.reqs.New(&ReqEntry{
		IsRecv:    false,
		Ctx:       w.c.Ctx(),
		Src:       int32(dest),
		Tag:       int32(tag),
		BornEpoch: w.l.epoch,
		Done:      true,
		Status:    mpi.Status{Source: dest, Tag: tag, Bytes: count * dt.Size()},
		comm:      w.c,
	})
	return e.ID, nil
}

// Irecv posts a non-blocking receive and returns a request handle. During
// recovery the Late-Message-Registry is consulted: a logged late message
// completes the request immediately from the log; a logged signature pins
// the wildcard before the real receive is posted.
func (w *WComm) Irecv(buf []byte, count int, dt *mpi.Datatype, src, tag int) (int, error) {
	l := w.l
	if l.err != nil {
		return 0, l.err
	}
	if err := l.checkControl(); err != nil {
		return 0, err
	}
	capBytes := count * dt.Size()
	typeH, _ := l.types.HandleFor(dt)
	e := l.reqs.New(&ReqEntry{
		IsRecv:    true,
		Ctx:       w.c.Ctx(),
		Src:       int32(src),
		Tag:       int32(tag),
		BytesCap:  capBytes,
		TypeH:     typeH,
		BornEpoch: l.epoch,
		buf:       buf,
		dt:        dt,
		count:     count,
		comm:      w.c,
		wildcard:  src == mpi.AnySource || tag == mpi.AnyTag,
	})
	postSrc, postTag := src, tag
	if l.mode == ModeRestore {
		if le := l.lateReg.TakeMatch(w.c.Ctx(), src, tag); le != nil {
			if le.Kind == LateData {
				if err := deliverPayload(le.Data, buf, dt); err != nil {
					return 0, err
				}
				e.Done = true
				e.Status = mpi.Status{Source: int(le.Sig.Src), Tag: int(le.Sig.Tag), Bytes: len(le.Data)}
				e.CompletedBy = cbLate
				e.LateSeq = le.Seq
				l.stats.ReplayedLate++
				l.maybeFinishRestore()
				return e.ID, nil
			}
			postSrc, postTag = int(le.Sig.Src), int(le.Sig.Tag)
			e.Pinned, e.PinSrc, e.PinTag = true, le.Sig.Src, le.Sig.Tag
			l.stats.PinnedWildcards++
			l.maybeFinishRestore()
		}
	}
	req, err := w.c.IrecvPacked(postSrc, postTag)
	if err != nil {
		return 0, err
	}
	e.mpiReq = req
	return e.ID, nil
}

// deliverPayload unpacks a packed payload into an application buffer.
func deliverPayload(payload, buf []byte, dt *mpi.Datatype) error {
	if dt == nil || dt.Size() == 0 {
		return nil
	}
	n := len(payload) / dt.Size()
	_, err := dt.Unpack(payload, buf, n)
	return err
}

// ReattachRecvBuffer re-associates an application buffer with a restored
// crossing request. C3 restores heap objects to their original addresses so
// the pointers in its request table stay valid; Go cannot pin addresses, so
// requests that crossed the recovery line and were not re-posted by the
// re-executed prologue must be given their buffer again before Wait/Test.
func (l *Layer) ReattachRecvBuffer(id int, buf []byte, count int, dt *mpi.Datatype) error {
	e, ok := l.reqs.Get(id)
	if !ok {
		return fmt.Errorf("ckpt: reattach: unknown request %d", id)
	}
	if !e.IsRecv {
		return fmt.Errorf("ckpt: reattach: request %d is a send", id)
	}
	e.buf = buf
	e.dt = dt
	e.count = count
	return nil
}

// Wait blocks until the request completes and releases its table entry
// (the deallocation is deferred while a checkpoint is in progress).
func (w *WComm) Wait(id int) (mpi.Status, error) { return w.l.waitReq(id) }

// Wait is the layer-level wait, usable with requests from any wrapped
// communicator.
func (l *Layer) Wait(id int) (mpi.Status, error) { return l.waitReq(id) }

func (l *Layer) waitReq(id int) (mpi.Status, error) {
	if l.err != nil {
		return mpi.Status{}, l.err
	}
	if err := l.checkControl(); err != nil {
		return mpi.Status{}, err
	}
	e, ok := l.reqs.Get(id)
	if !ok {
		return mpi.Status{}, fmt.Errorf("ckpt: wait on unknown request %d", id)
	}
	if e.Done {
		st := e.Status
		l.reqs.Release(id, l.inPeriod())
		return st, nil
	}
	if e.restored && e.CompletedBy == cbLate {
		st, err := l.replayLateCompletion(e)
		if err != nil {
			return st, err
		}
		l.reqs.Release(id, l.inPeriod())
		return st, nil
	}
	if e.mpiReq == nil {
		return mpi.Status{}, l.fatal(fmt.Errorf("ckpt: request %d has no underlying receive", id))
	}
	st, err := e.mpiReq.Wait()
	if err != nil {
		return mpi.Status{}, err
	}
	if err := l.completeRecvEntry(e, st); err != nil {
		return e.Status, err
	}
	ust := e.Status
	l.reqs.Release(id, l.inPeriod())
	return ust, nil
}

// replayLateCompletion delivers a restored request's payload from the log.
func (l *Layer) replayLateCompletion(e *ReqEntry) (mpi.Status, error) {
	le := e.replay
	if le == nil {
		return mpi.Status{}, l.fatal(fmt.Errorf("ckpt: request %d: late completion has no reserved log entry", e.ID))
	}
	if e.buf == nil {
		return mpi.Status{}, fmt.Errorf("ckpt: request %d: crossing request needs ReattachRecvBuffer before Wait", e.ID)
	}
	if err := deliverPayload(le.Data, e.buf, e.dt); err != nil {
		return mpi.Status{}, err
	}
	e.Done = true
	e.Status = mpi.Status{Source: int(le.Sig.Src), Tag: int(le.Sig.Tag), Bytes: len(le.Data)}
	l.stats.ReplayedLate++
	l.maybeFinishRestore()
	return e.Status, nil
}

// completeRecvEntry finishes a real non-blocking receive: strip the header,
// classify, record the completion kind in the table entry ("during the
// logging phase, we mark the type of message matching the posted request"),
// pin wildcard completions for replay, and unpack into the app buffer.
func (l *Layer) completeRecvEntry(e *ReqEntry, st mpi.Status) error {
	res, err := l.finishRecv(e.comm, st, e.mpiReq.Data(), e.BytesCap, false, false)
	if err != nil {
		return err
	}
	e.Done = true
	e.Status = res.status
	if l.inPeriod() {
		switch res.class {
		case ClassIntra:
			e.CompletedBy = cbIntra
			if l.mode == ModeNonDetLog && e.wildcard && !res.senderStopped && !e.Pinned {
				// Record the completing signature in the entry itself (not
				// the registry FIFO) so recovery re-posts the request
				// restricted to the original match.
				e.Pinned, e.PinSrc, e.PinTag = true, int32(res.status.Source), int32(res.status.Tag)
			}
		case ClassEarly:
			e.CompletedBy = cbEarly
		case ClassLate:
			e.CompletedBy = cbLate
			e.LateSeq = res.lateSeq
		}
	} else {
		e.CompletedBy = cbAtLine
	}
	if e.buf != nil && e.dt != nil {
		if err := deliverPayload(res.payload, e.buf, e.dt); err != nil {
			return err
		}
	}
	// Run protocol transitions only now that the completion kind is
	// recorded in the table entry: if this receive was the last expected
	// late message, the transition commits the checkpoint and serializes
	// the request table, which must see CompletedBy/LateSeq.
	return l.applyTransitions()
}

// Test progresses the request without blocking. During recovery, the
// recorded number of unsuccessful Test calls is replayed first, and once
// the counter is exhausted a Test on a request that originally completed
// during the logging phase is substituted with a Wait, "ensuring the Test
// completes as in the original execution" (Section 4.1).
func (w *WComm) Test(id int) (mpi.Status, bool, error) { return w.l.testReq(id) }

// Test is the layer-level test.
func (l *Layer) Test(id int) (mpi.Status, bool, error) { return l.testReq(id) }

func (l *Layer) testReq(id int) (mpi.Status, bool, error) {
	if l.err != nil {
		return mpi.Status{}, false, l.err
	}
	if err := l.checkControl(); err != nil {
		return mpi.Status{}, false, err
	}
	e, ok := l.reqs.Get(id)
	if !ok {
		return mpi.Status{}, false, fmt.Errorf("ckpt: test on unknown request %d", id)
	}
	if e.ReplayFails > 0 {
		e.ReplayFails--
		return mpi.Status{}, false, nil
	}
	if e.Done {
		st := e.Status
		l.reqs.Release(id, l.inPeriod())
		return st, true, nil
	}
	if e.restored && e.CompletedBy != cbNone {
		// The original Test at this point succeeded; substitute a Wait.
		// "This replacement of Test calls with Wait calls can never lead to
		// deadlock, since the Test completed during the original execution."
		st, err := l.waitReq(id)
		return st, err == nil, err
	}
	if e.mpiReq == nil {
		return mpi.Status{}, false, l.fatal(fmt.Errorf("ckpt: request %d has no underlying receive", id))
	}
	st, done, err := e.mpiReq.Test()
	if err != nil {
		return mpi.Status{}, false, err
	}
	if !done {
		if l.inPeriod() {
			e.TestFails++
		}
		return mpi.Status{}, false, nil
	}
	if err := l.completeRecvEntry(e, st); err != nil {
		return e.Status, e.Done, err
	}
	ust := e.Status
	l.reqs.Release(id, l.inPeriod())
	return ust, true, nil
}

// Waitall waits for every request in order.
func (w *WComm) Waitall(ids []int) ([]mpi.Status, error) {
	sts := make([]mpi.Status, len(ids))
	for i, id := range ids {
		st, err := w.l.waitReq(id)
		if err != nil {
			return sts, err
		}
		sts[i] = st
	}
	return sts, nil
}

// Waitany blocks until one of the requests completes, returning its index
// in ids. During non-deterministic logging the chosen request is recorded;
// during recovery the recorded choice is replayed ("this counter is used to
// log the index or indices of MPI_Wait_any ... and to replay these routines
// during recovery").
func (w *WComm) Waitany(ids []int) (int, mpi.Status, error) {
	l := w.l
	if err := l.checkControl(); err != nil {
		return -1, mpi.Status{}, err
	}
	if replayIDs, ok := l.popAnyReplayFor(ids); ok {
		id := replayIDs[0]
		idx := indexOf(ids, id)
		if idx < 0 {
			return -1, mpi.Status{}, l.fatal(fmt.Errorf("ckpt: waitany replay chose request %d, not among the waited set", id))
		}
		st, err := l.waitReq(id)
		return idx, st, err
	}
	for {
		for idx, id := range ids {
			e, ok := l.reqs.Get(id)
			if !ok {
				continue
			}
			ready := e.Done || (e.restored && e.CompletedBy == cbLate && e.ReplayFails == 0)
			if !ready && e.mpiReq != nil && e.mpiReq.Done() {
				ready = true
			}
			if ready {
				st, err := l.waitReq(id)
				if err == nil && l.inPeriod() && l.mode == ModeNonDetLog {
					l.reqs.LogAnyCompletion([]int{id})
				}
				return idx, st, err
			}
		}
		// Progress the engine: wait for any underlying request to flip.
		var reqs []*mpi.Request
		for _, id := range ids {
			if e, ok := l.reqs.Get(id); ok && e.mpiReq != nil && !e.Done {
				reqs = append(reqs, e.mpiReq)
			}
		}
		if len(reqs) == 0 {
			return -1, mpi.Status{}, fmt.Errorf("ckpt: waitany with no active requests")
		}
		if _, _, err := mpi.Waitany(reqs); err != nil {
			return -1, mpi.Status{}, err
		}
	}
}

// popAnyReplayFor pops the next Waitany/Waitsome replay record if one is
// pending and intersects the waited set.
func (l *Layer) popAnyReplayFor(ids []int) ([]int, bool) {
	if !l.reqs.AnyReplayPending() {
		return nil, false
	}
	rec, _ := l.reqs.PopAnyReplay()
	_ = ids
	return rec, true
}

func indexOf(ids []int, id int) int {
	for i, v := range ids {
		if v == id {
			return i
		}
	}
	return -1
}

// --- Restored request-table merging ---

// restoreRequests merges a checkpointed request table into the live one:
// requests the re-executed prologue already re-created are verified and
// adopted; missing crossing requests are recreated ("all requests that have
// not been completed by a late message are recreated before the program
// resumes execution"); requests allocated after the line are implicitly
// discarded because the ID watermark rolls back.
func (l *Layer) restoreRequests(data []byte) error {
	entries, idAtLine, anyReplay, err := deserializeReqTable(data)
	if err != nil {
		return err
	}
	l.reqs.anyReplay = anyReplay
	for i := range entries {
		re := &entries[i]
		if existing, ok := l.reqs.Get(re.ID); ok {
			if err := l.adoptRestored(existing, re); err != nil {
				return err
			}
			continue
		}
		e := &ReqEntry{
			ID:          re.ID,
			IsRecv:      re.IsRecv,
			Ctx:         re.Ctx,
			Src:         re.Src,
			Tag:         re.Tag,
			BytesCap:    re.BytesCap,
			TypeH:       re.TypeH,
			BornEpoch:   re.BornEpoch,
			Pinned:      re.Pinned,
			PinSrc:      re.PinSrc,
			PinTag:      re.PinTag,
			Done:        re.Done,
			Status:      re.Status,
			ReplayFails: re.ReplayFails,
			CompletedBy: re.CompletedBy,
			LateSeq:     re.LateSeq,
			restored:    true,
		}
		l.reqs.entries[e.ID] = e
		l.reqs.order = append(l.reqs.order, e.ID)
		if e.Done || !e.IsRecv {
			e.Done = true
			continue
		}
		switch e.CompletedBy {
		case cbLate:
			le := l.lateReg.TakeSeq(e.LateSeq)
			if le == nil {
				return fmt.Errorf("ckpt: request %d: late log entry %d missing", e.ID, e.LateSeq)
			}
			e.replay = le
		default:
			if err := l.repostRestored(e); err != nil {
				return err
			}
		}
	}
	if l.reqs.nextID > idAtLine {
		return fmt.Errorf("ckpt: re-executed prologue created %d requests, original had %d at the line",
			l.reqs.nextID-1, idAtLine-1)
	}
	l.reqs.nextID = idAtLine
	return nil
}

// adoptRestored merges a checkpointed entry into one the restarted prologue
// already re-created, keeping the prologue's buffer binding.
func (l *Layer) adoptRestored(e *ReqEntry, re *restoredEntry) error {
	if e.IsRecv != re.IsRecv || e.Ctx != re.Ctx {
		return fmt.Errorf("ckpt: request %d diverged between runs (recv=%v ctx=%d vs recv=%v ctx=%d)",
			e.ID, e.IsRecv, e.Ctx, re.IsRecv, re.Ctx)
	}
	e.ReplayFails = re.ReplayFails
	e.BornEpoch = re.BornEpoch
	if !e.IsRecv {
		return nil
	}
	switch {
	case re.Done:
		// Completed before the line: the data is already in the restored
		// application state. Cancel the freshly posted receive so a re-sent
		// message cannot match it.
		if e.mpiReq != nil {
			e.mpiReq.Cancel()
			e.mpiReq = nil
		}
		e.Done = true
		e.Status = re.Status
		e.CompletedBy = cbAtLine
		e.restored = true
	case re.CompletedBy == cbLate:
		if e.mpiReq != nil {
			e.mpiReq.Cancel()
			e.mpiReq = nil
		}
		le := l.lateReg.TakeSeq(re.LateSeq)
		if le == nil {
			return fmt.Errorf("ckpt: request %d: late log entry %d missing", e.ID, re.LateSeq)
		}
		e.replay = le
		e.CompletedBy = cbLate
		e.LateSeq = re.LateSeq
		e.restored = true
	default:
		e.CompletedBy = re.CompletedBy
		e.restored = true
		if re.Pinned && !e.Pinned {
			// Re-post restricted to the original wildcard match.
			if e.mpiReq != nil {
				e.mpiReq.Cancel()
			}
			e.Pinned, e.PinSrc, e.PinTag = true, re.PinSrc, re.PinTag
			ce, ok := l.comms.ByCtx(e.Ctx)
			if !ok || ce.Comm == nil {
				return fmt.Errorf("ckpt: request %d: communicator ctx %d not restored", e.ID, e.Ctx)
			}
			req, err := ce.Comm.IrecvPacked(int(e.PinSrc), int(e.PinTag))
			if err != nil {
				return err
			}
			e.mpiReq = req
		}
	}
	return nil
}

// repostRestored posts the underlying receive for a restored crossing
// request that the prologue did not re-create. The request has no buffer
// to unpack into until the application calls ReattachRecvBuffer, which it
// must do before waiting on it.
func (l *Layer) repostRestored(e *ReqEntry) error {
	ce, ok := l.comms.ByCtx(e.Ctx)
	if !ok || ce.Comm == nil {
		return fmt.Errorf("ckpt: request %d: communicator ctx %d not restored", e.ID, e.Ctx)
	}
	e.comm = ce.Comm
	e.wildcard = int(e.Src) == mpi.AnySource || int(e.Tag) == mpi.AnyTag
	src, tag := int(e.Src), int(e.Tag)
	if e.Pinned {
		src, tag = int(e.PinSrc), int(e.PinTag)
	}
	req, err := ce.Comm.IrecvPacked(src, tag)
	if err != nil {
		return err
	}
	e.mpiReq = req
	return nil
}

// --- Datatype and reduction-op handle API ---

// TypeContiguous creates a contiguous datatype handle.
func (l *Layer) TypeContiguous(count, base int) (int, error) { return l.types.Contiguous(count, base) }

// TypeVector creates a vector datatype handle.
func (l *Layer) TypeVector(count, blockLen, stride, base int) (int, error) {
	return l.types.Vector(count, blockLen, stride, base)
}

// TypeIndexed creates an indexed datatype handle.
func (l *Layer) TypeIndexed(blockLens, displs []int, base int) (int, error) {
	return l.types.Indexed(blockLens, displs, base)
}

// TypeStruct creates a struct datatype handle.
func (l *Layer) TypeStruct(blockLens, byteDispls []int, children []int) (int, error) {
	return l.types.Struct(blockLens, byteDispls, children)
}

// TypeFree releases a datatype handle (the recipe row survives while other
// types depend on it).
func (l *Layer) TypeFree(handle int) error { return l.types.Free(handle) }

// Type returns the native datatype for a handle.
func (l *Layer) Type(handle int) (*mpi.Datatype, error) {
	e, ok := l.types.Get(handle)
	if !ok || e.DT == nil {
		return nil, fmt.Errorf("ckpt: no datatype with handle %d", handle)
	}
	return e.DT, nil
}

// RegisterOp registers a user-defined reduction operation; it must be
// re-registered (same order) by the application prologue before Restore.
func (l *Layer) RegisterOp(op *mpi.Op) int { return l.ops.Register(op) }

// Op returns the reduction operation for a handle.
func (l *Layer) Op(handle int) (*mpi.Op, error) {
	op, ok := l.ops.Get(handle)
	if !ok {
		return nil, fmt.Errorf("ckpt: no reduction op with handle %d", handle)
	}
	return op, nil
}
