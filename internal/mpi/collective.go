package mpi

import (
	"encoding/binary"
	"fmt"
)

// Plane carries the point-to-point streams a collective is made of. Every
// collective here is a fixed topology of such streams, written once against
// this interface. Two planes implement it: a communicator's own collective
// context (the native plane, Comm's collective methods) and the checkpoint
// layer's protocol-wrapped streams. So a Direct run and a checkpointed run
// send the same messages in the same order.
//
// Ownership: SendColl must not keep packed after it returns, so the engine
// passes views of user buffers and reused scratch space without copying.
// RecvColl receives one stream of kind k from src, at most n bytes, and
// returns the bytes the plane holds for it: the message's own (see
// Comm.IrecvPacked), which the engine only reads, so it receives into no
// buffer of its own. The engine checks the exact size.
type Plane interface {
	Rank() int
	Size() int
	SendColl(packed []byte, dst, k int) error
	RecvColl(n, src, k int) ([]byte, error)
}

// Collective kinds. A plane maps each to a tag of its own; distinct tags
// per kind keep interleaved collectives of different kinds from
// cross-matching.
const (
	kBarrier = iota
	kBcast
	kGather
	kScatter
	kAllgather
	kAlltoall
	kReduce
	kScan
	kCtxAlloc
)

// nativePlane is a communicator's collective context, whose tags sit just
// above the user range, so they never match user point-to-point traffic.
type nativePlane struct{ *Comm }

// SendColl copies packed into the message: it is a view of a user buffer
// or of scratch space the engine reuses, and the message must own its
// bytes (Comm.SendPackedColl).
func (p nativePlane) SendColl(packed []byte, dst, k int) error {
	return p.SendPackedColl(append([]byte(nil), packed...), dst, MaxUserTag+1+k)
}

func (p nativePlane) RecvColl(_, src, k int) ([]byte, error) {
	_, data, err := p.RecvPackedColl(src, MaxUserTag+1+k)
	return data, err
}

// recv receives a stream of exactly n bytes (see Plane).
func recv(p Plane, n, src, k int) ([]byte, error) {
	got, err := p.RecvColl(n, src, k)
	if err == nil && len(got) != n {
		err = fmt.Errorf("%w: collective stream from %d: %d bytes, want %d", ErrTruncate, src, len(got), n)
	}
	return got, err
}

// sendView returns count elements of dt from buf packed for sending. A
// dense type's packed form is buf's own prefix, returned as is; any other
// type is packed into *scratch, which a caller reuses across its streams.
func sendView(dt *Datatype, buf []byte, count int, scratch *[]byte) ([]byte, error) {
	if n := count * dt.size; dt.dense && count >= 0 && n <= len(buf) {
		return buf[:n], nil
	}
	b, err := dt.AppendPacked((*scratch)[:0], buf, count)
	*scratch = b
	return b, err
}

// Barrier blocks until every rank has entered it: log2(n) dissemination
// rounds of empty messages.
func Barrier(p Plane) error {
	n, me := p.Size(), p.Rank()
	for k := 1; k < n; k <<= 1 {
		if err := p.SendColl(nil, (me+k)%n, kBarrier); err != nil {
			return err
		}
		if _, err := recv(p, 0, (me-k+n)%n, kBarrier); err != nil {
			return err
		}
	}
	return nil
}

// bcast sends the size bytes of root's buf down a binomial tree over
// virtual ranks, root being 0: a rank receives from vr with its lowest set
// bit cleared and forwards to vr|bit for each bit below that one. It
// returns the bytes this rank now holds: elsewhere than at root, the
// plane's (see Plane), and buf is not used.
func bcast(p Plane, buf []byte, size, root, k int) ([]byte, error) {
	n := p.Size()
	vr := (p.Rank() - root + n) % n
	if vr != 0 {
		got, err := recv(p, size, (vr&(vr-1)+root)%n, k)
		if err != nil {
			return nil, err
		}
		buf = got
	}
	for bit := 1; vr&bit == 0 && vr|bit < n; bit <<= 1 {
		if err := p.SendColl(buf, ((vr|bit)+root)%n, k); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Bcast broadcasts count elements of dt from root's buf into every rank's
// buf.
func Bcast(p Plane, buf []byte, count int, dt *Datatype, root int) error {
	if p.Rank() == root {
		packed, err := sendView(dt, buf, count, new([]byte))
		if err != nil {
			return err
		}
		_, err = bcast(p, packed, len(packed), root, kBcast)
		return err
	}
	got, err := bcast(p, nil, count*dt.Size(), root, kBcast)
	if err != nil {
		return err
	}
	_, err = dt.Unpack(got, buf, count)
	return err
}

// gatherInto collects every rank's mine into all at root, in rank order.
func gatherInto(p Plane, mine, all []byte, root, k int) error {
	if p.Rank() != root {
		return p.SendColl(mine, root, k)
	}
	chunk := len(mine)
	for r := 0; r < p.Size(); r++ {
		slot := all[r*chunk : (r+1)*chunk]
		if r == root {
			copy(slot, mine)
			continue
		}
		got, err := recv(p, chunk, r, k)
		if err != nil {
			return err
		}
		copy(slot, got)
	}
	return nil
}

// Gather collects sendCount elements of sendType from every rank into
// root's recvBuf, ordered by rank; recvCount elements of recvType must
// hold the same bytes at the root.
func Gather(p Plane, sendBuf []byte, sendCount int, sendType *Datatype, recvBuf []byte, recvCount int, recvType *Datatype, root int) error {
	mine, err := sendView(sendType, sendBuf, sendCount, new([]byte))
	if err != nil {
		return err
	}
	if p.Rank() != root {
		return p.SendColl(mine, root, kGather)
	}
	if recvCount*recvType.Size() != len(mine) {
		return fmt.Errorf("%w: gather recv %d bytes/rank, send %d", ErrInvalid, recvCount*recvType.Size(), len(mine))
	}
	for r := 0; r < p.Size(); r++ {
		got := mine
		if r != root {
			if got, err = recv(p, len(mine), r, kGather); err != nil {
				return err
			}
		}
		if _, err := recvType.Unpack(got, recvBuf[r*recvCount*recvType.Extent():], recvCount); err != nil {
			return err
		}
	}
	return nil
}

// Scatter distributes per-rank chunks from root's sendBuf: rank r receives
// recvCount elements of recvType taken from root's slot r.
func Scatter(p Plane, sendBuf []byte, sendCount int, sendType *Datatype, recvBuf []byte, recvCount int, recvType *Datatype, root int) error {
	chunk := recvCount * recvType.Size()
	if p.Rank() != root {
		got, err := recv(p, chunk, root, kScatter)
		if err != nil {
			return err
		}
		_, err = recvType.Unpack(got, recvBuf, recvCount)
		return err
	}
	if sendCount*sendType.Size() != chunk {
		return fmt.Errorf("%w: scatter send %d bytes/rank, recv %d", ErrInvalid, sendCount*sendType.Size(), chunk)
	}
	var scratch []byte
	for r := 0; r < p.Size(); r++ {
		packed, err := sendView(sendType, sendBuf[r*sendCount*sendType.Extent():], sendCount, &scratch)
		if err != nil {
			return err
		}
		if r == root {
			_, err = recvType.Unpack(packed, recvBuf, recvCount)
		} else {
			err = p.SendColl(packed, r, kScatter)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Allgather collects count elements of dt from every rank into every
// rank's recvBuf, ordered by rank: a gather to rank 0 plus a broadcast.
func Allgather(p Plane, sendBuf []byte, count int, dt *Datatype, recvBuf []byte) error {
	mine, err := sendView(dt, sendBuf, count, new([]byte))
	if err != nil {
		return err
	}
	chunk := len(mine)
	var all []byte
	if p.Rank() == 0 {
		all = make([]byte, p.Size()*chunk)
	}
	if err := gatherInto(p, mine, all, 0, kAllgather); err != nil {
		return err
	}
	if all, err = bcast(p, all, p.Size()*chunk, 0, kAllgather); err != nil {
		return err
	}
	for r := 0; r < p.Size(); r++ {
		if _, err := dt.Unpack(all[r*chunk:(r+1)*chunk], recvBuf[r*count*dt.Extent():], count); err != nil {
			return err
		}
	}
	return nil
}

// Alltoall exchanges fixed-size chunks pairwise: rank r's slot j of
// sendBuf goes to rank j's slot r of recvBuf. count is elements of dt per
// chunk.
func Alltoall(p Plane, sendBuf []byte, count int, dt *Datatype, recvBuf []byte) error {
	n, me := p.Size(), p.Rank()
	span := count * dt.Extent()
	var scratch []byte
	for k := 0; k < n; k++ {
		dst := (me + k) % n
		packed, err := sendView(dt, sendBuf[dst*span:], count, &scratch)
		if err != nil {
			return err
		}
		if dst == me {
			_, err = dt.Unpack(packed, recvBuf[dst*span:], count)
		} else {
			err = p.SendColl(packed, dst, kAlltoall)
		}
		if err != nil {
			return err
		}
	}
	for k := 1; k < n; k++ {
		src := (me - k + n) % n
		got, err := recv(p, count*dt.Size(), src, kAlltoall)
		if err != nil {
			return err
		}
		if _, err := dt.Unpack(got, recvBuf[src*span:], count); err != nil {
			return err
		}
	}
	return nil
}

// Alltoallv exchanges variable-sized byte chunks pairwise; counts and
// displacements are in bytes.
func Alltoallv(p Plane, sendBuf []byte, sendCounts, sendDispls []int, recvBuf []byte, recvCounts, recvDispls []int) error {
	n, me := p.Size(), p.Rank()
	if len(sendCounts) != n || len(sendDispls) != n || len(recvCounts) != n || len(recvDispls) != n {
		return fmt.Errorf("%w: alltoallv counts/displs length", ErrInvalid)
	}
	for k := 0; k < n; k++ {
		dst := (me + k) % n
		chunk := sendBuf[sendDispls[dst] : sendDispls[dst]+sendCounts[dst]]
		if dst != me {
			if err := p.SendColl(chunk, dst, kAlltoall); err != nil {
				return err
			}
		} else if sendCounts[dst] != recvCounts[dst] {
			return fmt.Errorf("%w: alltoallv self chunk %d != %d", ErrInvalid, sendCounts[dst], recvCounts[dst])
		} else {
			copy(recvBuf[recvDispls[dst]:], chunk)
		}
	}
	for k := 1; k < n; k++ {
		src := (me - k + n) % n
		slot := recvBuf[recvDispls[src] : recvDispls[src]+recvCounts[src]]
		got, err := recv(p, len(slot), src, kAlltoall)
		if err != nil {
			return err
		}
		copy(slot, got)
	}
	return nil
}

// fold sends every rank's mine to root, which folds the contributions in
// ascending rank order, acc = op(acc, x_r), so floating-point results are
// deterministic, and returns acc (nil elsewhere). With aux, each
// contribution leads with an int64 folded by MIN. The root copies each
// contribution into one of two buffers and swaps them as it folds:
// Op.Apply writes its second operand, and bytes a plane holds are only
// read.
func fold(p Plane, mine []byte, root, k int, op *Op, dt *Datatype, count int, aux bool) ([]byte, error) {
	if p.Rank() != root {
		return nil, p.SendColl(mine, root, k)
	}
	off := 0
	if aux {
		off = 8
	}
	acc, x := make([]byte, len(mine)), make([]byte, len(mine))
	for r := 0; r < p.Size(); r++ {
		got := mine
		if r != root {
			var err error
			if got, err = recv(p, len(x), r, k); err != nil {
				return nil, err
			}
		}
		if r == 0 {
			copy(acc, got)
			continue
		}
		copy(x, got)
		if aux && int64(binary.LittleEndian.Uint64(acc)) < int64(binary.LittleEndian.Uint64(x)) {
			copy(x[:8], acc[:8])
		}
		if err := op.Apply(acc[off:], x[off:], dt, count); err != nil {
			return nil, err
		}
		acc, x = x, acc
	}
	return acc, nil
}

// Reduce combines count elements of dt from every rank with op into
// root's recvBuf, folding in ascending rank order (see fold). The paper's
// Section 4.3 reduce: the contributions travel to the root as independent
// streams and the reduction is applied locally.
func Reduce(p Plane, sendBuf, recvBuf []byte, count int, dt *Datatype, op *Op, root int) error {
	mine, err := sendView(dt, sendBuf, count, new([]byte))
	if err != nil {
		return err
	}
	acc, err := fold(p, mine, root, kReduce, op, dt, count, false)
	if err != nil || p.Rank() != root {
		return err
	}
	_, err = dt.Unpack(acc, recvBuf, count)
	return err
}

// allreduceAux combines count elements with op while reducing aux with MIN
// in the same round: a fold to rank 0 plus a broadcast.
func allreduceAux(p Plane, sendBuf, recvBuf []byte, count int, dt *Datatype, op *Op, aux int64) (int64, error) {
	mine := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+count*dt.Size()), uint64(aux))
	mine, err := dt.AppendPacked(mine, sendBuf, count)
	if err != nil {
		return 0, err
	}
	acc, err := fold(p, mine, 0, kReduce, op, dt, count, true)
	if err != nil {
		return 0, err
	}
	if p.Rank() == 0 {
		copy(mine, acc)
	}
	if mine, err = bcast(p, mine, len(mine), 0, kBcast); err != nil {
		return 0, err
	}
	if _, err := dt.Unpack(mine[8:], recvBuf, count); err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(mine)), nil
}

// Scan computes the inclusive prefix reduction: rank r's recvBuf holds
// op(x_0, ..., x_r). It runs as a rank-ordered chain, the strictly ordered
// dependency structure the paper relies on in Section 4.3.
func Scan(p Plane, sendBuf, recvBuf []byte, count int, dt *Datatype, op *Op) error {
	acc, err := dt.Pack(sendBuf, count) // fresh: the prefix folds into it
	if err != nil {
		return err
	}
	n, me := p.Size(), p.Rank()
	if me > 0 {
		prefix, err := recv(p, len(acc), me-1, kScan)
		if err != nil {
			return err
		}
		if err := op.Apply(prefix, acc, dt, count); err != nil {
			return err
		}
	}
	if me < n-1 {
		if err := p.SendColl(acc, me+1, kScan); err != nil {
			return err
		}
	}
	_, err = dt.Unpack(acc, recvBuf, count)
	return err
}

// Barrier runs Barrier on c's collective context.
func (c *Comm) Barrier() error { return Barrier(nativePlane{c}) }

// Bcast runs Bcast on c's collective context.
func (c *Comm) Bcast(buf []byte, count int, dt *Datatype, root int) error {
	return Bcast(nativePlane{c}, buf, count, dt, root)
}

// Gather runs Gather on c's collective context.
func (c *Comm) Gather(sendBuf []byte, sendCount int, sendType *Datatype, recvBuf []byte, recvCount int, recvType *Datatype, root int) error {
	return Gather(nativePlane{c}, sendBuf, sendCount, sendType, recvBuf, recvCount, recvType, root)
}

// Scatter runs Scatter on c's collective context.
func (c *Comm) Scatter(sendBuf []byte, sendCount int, sendType *Datatype, recvBuf []byte, recvCount int, recvType *Datatype, root int) error {
	return Scatter(nativePlane{c}, sendBuf, sendCount, sendType, recvBuf, recvCount, recvType, root)
}

// Allgather runs Allgather on c's collective context.
func (c *Comm) Allgather(sendBuf []byte, count int, dt *Datatype, recvBuf []byte) error {
	return Allgather(nativePlane{c}, sendBuf, count, dt, recvBuf)
}

// Alltoall runs Alltoall on c's collective context.
func (c *Comm) Alltoall(sendBuf []byte, count int, dt *Datatype, recvBuf []byte) error {
	return Alltoall(nativePlane{c}, sendBuf, count, dt, recvBuf)
}

// Alltoallv runs Alltoallv on c's collective context.
func (c *Comm) Alltoallv(sendBuf []byte, sendCounts, sendDispls []int, recvBuf []byte, recvCounts, recvDispls []int) error {
	return Alltoallv(nativePlane{c}, sendBuf, sendCounts, sendDispls, recvBuf, recvCounts, recvDispls)
}

// Reduce runs Reduce on c's collective context.
func (c *Comm) Reduce(sendBuf []byte, recvBuf []byte, count int, dt *Datatype, op *Op, root int) error {
	return Reduce(nativePlane{c}, sendBuf, recvBuf, count, dt, op, root)
}

// Scan runs Scan on c's collective context.
func (c *Comm) Scan(sendBuf []byte, recvBuf []byte, count int, dt *Datatype, op *Op) error {
	return Scan(nativePlane{c}, sendBuf, recvBuf, count, dt, op)
}

// Allreduce combines contributions with op and distributes the result to
// every rank: Reduce to rank 0 followed by Bcast.
func (c *Comm) Allreduce(sendBuf []byte, recvBuf []byte, count int, dt *Datatype, op *Op) error {
	if err := c.Reduce(sendBuf, recvBuf, count, dt, op, 0); err != nil {
		return err
	}
	return c.Bcast(recvBuf, count, dt, 0)
}

// AllreduceAux combines count elements with op while simultaneously
// reducing an auxiliary int64 with MIN, in the same collective round. The
// checkpoint protocol layer uses the auxiliary value to detect whether an
// Allreduce crossed a recovery line (minimum participant epoch) without
// paying for a second collective.
func (c *Comm) AllreduceAux(sendBuf, recvBuf []byte, count int, dt *Datatype, op *Op, aux int64) (int64, error) {
	return allreduceAux(nativePlane{c}, sendBuf, recvBuf, count, dt, op, aux)
}
