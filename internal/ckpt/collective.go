package ckpt

import (
	"fmt"

	"c3/internal/mpi"
)

// Collective operations under the protocol (paper Section 4.3).
//
// The paper's approach is to "apply the base protocol to the start and end
// points of each individual communication stream within a collective
// operation". Each collective is a fixed topology of point-to-point
// streams, written once in package mpi against mpi.Plane; wplane runs that
// engine over protocol-wrapped streams on the communicator's collective
// context. Every hop gets the full piggyback/classification/logging/
// suppression treatment, so a collective crossing a recovery line recovers
// stream by stream: processes whose call was before their line do not
// re-execute it, their outbound streams replay from the
// Late-Message-Registry, and re-sends into their pre-line state are
// suppressed via the Was-Early-Registry.
//
// The paper instead issues the native collective and reverts to
// point-to-point emulation only during recovery. Here the native
// collectives run the same engine over the same transport, so the wrapped
// plane sends exactly the messages a Direct run sends, and there is no
// switch-over to get wrong (DESIGN.md, "Collectives: one set of
// topologies, two planes"). Reduce follows the paper: contributions reach
// the root as independent streams and the reduction is applied locally.
// Allreduce reproduces the paper's result logging: the operation runs on
// the native (opaque) plane and, when the call crosses a recovery line,
// each post-line process logs the result and replays it during recovery.

// Result-log kinds.
const (
	rkAllreduce uint8 = 1
)

// wplane is the wrapped plane. Its tags sit 100 above the native plane's:
// both share the collective context, where WComm.Allreduce runs the native
// AllreduceAux.
type wplane struct{ *WComm }

// SendColl copies the engine's view into the message packUser builds
// behind the header, the stream's one copy.
func (p wplane) SendColl(packed []byte, dst, k int) error {
	msg, err := p.l.packUser(packed, len(packed), mpi.TypeByte)
	if err != nil {
		return err
	}
	return p.l.sendUser(p.c, msg, dst, mpi.MaxUserTag+101+k, viaColl)
}

// RecvColl returns the payload as a view of the message (finishRecv).
func (p wplane) RecvColl(n, src, k int) ([]byte, error) {
	res, err := p.l.recvUser(p.c, n, src, mpi.MaxUserTag+101+k, true)
	return res.payload, err
}

// Barrier blocks until all ranks enter it.
func (w *WComm) Barrier() error { return mpi.Barrier(wplane{w}) }

// Bcast broadcasts count elements of dt from root.
func (w *WComm) Bcast(buf []byte, count int, dt *mpi.Datatype, root int) error {
	return mpi.Bcast(wplane{w}, buf, count, dt, root)
}

// Gather collects sendCount elements of dt from every rank into the root's
// recvBuf, ordered by rank.
func (w *WComm) Gather(sendBuf []byte, sendCount int, dt *mpi.Datatype, recvBuf []byte, root int) error {
	return mpi.Gather(wplane{w}, sendBuf, sendCount, dt, recvBuf, sendCount, dt, root)
}

// Scatter distributes per-rank chunks of count elements of dt from the
// root's sendBuf.
func (w *WComm) Scatter(sendBuf []byte, count int, dt *mpi.Datatype, recvBuf []byte, root int) error {
	return mpi.Scatter(wplane{w}, sendBuf, count, dt, recvBuf, count, dt, root)
}

// Allgather collects count elements of dt from every rank into every
// rank's recvBuf.
func (w *WComm) Allgather(sendBuf []byte, count int, dt *mpi.Datatype, recvBuf []byte) error {
	return mpi.Allgather(wplane{w}, sendBuf, count, dt, recvBuf)
}

// Alltoall exchanges fixed-size chunks of count elements of dt pairwise.
func (w *WComm) Alltoall(sendBuf []byte, count int, dt *mpi.Datatype, recvBuf []byte) error {
	return mpi.Alltoall(wplane{w}, sendBuf, count, dt, recvBuf)
}

// Alltoallv exchanges variable-sized byte chunks; counts and displacements
// are in bytes.
func (w *WComm) Alltoallv(sendBuf []byte, sendCounts, sendDispls []int, recvBuf []byte, recvCounts, recvDispls []int) error {
	return mpi.Alltoallv(wplane{w}, sendBuf, sendCounts, sendDispls, recvBuf, recvCounts, recvDispls)
}

// Reduce combines contributions with op at the root, folding in ascending
// rank order.
func (w *WComm) Reduce(sendBuf, recvBuf []byte, count int, dt *mpi.Datatype, op *mpi.Op, root int) error {
	return mpi.Reduce(wplane{w}, sendBuf, recvBuf, count, dt, op, root)
}

// Scan computes the inclusive prefix reduction over a rank chain. The chain
// realizes the paper's observation that scan results are "either stored in
// the log or ... recomputed along this dependency chain based on the
// logged data": each hop is logged or replayed by the base protocol.
func (w *WComm) Scan(sendBuf, recvBuf []byte, count int, dt *mpi.Datatype, op *mpi.Op) error {
	return mpi.Scan(wplane{w}, sendBuf, recvBuf, count, dt, op)
}

// Allreduce combines contributions with op and distributes the result. It
// reproduces the paper's mechanism for opaque collectives: the data moves
// through the native (unwrapped) MPI implementation, and when the call
// crosses a recovery line — detected by exchanging the minimum participant
// epoch — every post-line process logs the result and replays it during
// recovery, because the pre-line participants will not re-execute the call.
func (w *WComm) Allreduce(sendBuf, recvBuf []byte, count int, dt *mpi.Datatype, op *mpi.Op) error {
	l, c := w.l, w.c
	if l.err != nil {
		return l.err
	}
	if err := l.checkControl(); err != nil {
		return err
	}
	if l.mode == ModeRestore {
		if data, ok := l.results.Pop(rkAllreduce, c.CollCtx()); ok {
			l.stats.ResultsReplayed++
			l.maybeFinishRestore()
			return deliverPayload(data, recvBuf, dt)
		}
	}
	// The minimum epoch among the participants rides along in the same
	// collective round. A participant whose epoch exceeds the minimum is
	// post-line for a line some participant has not yet reached; its
	// re-execution could not re-communicate with the pre-line processes,
	// so it must log the result.
	minEpoch, err := c.AllreduceAux(sendBuf, recvBuf, count, dt, op, int64(l.epoch))
	if err != nil {
		return err
	}
	if uint64(minEpoch) < l.epoch {
		if !l.inPeriod() {
			return l.fatal(fmt.Errorf("ckpt: allreduce crossed a line but rank %d has no open checkpoint (mode %v)", l.rank, l.mode))
		}
		packed, err := dt.Pack(recvBuf, count)
		if err != nil {
			return err
		}
		l.results.Append(rkAllreduce, c.CollCtx(), packed)
		l.stats.ResultsLogged++
	}
	return nil
}
