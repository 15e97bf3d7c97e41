package mpi

import "fmt"

// Send transmits count elements of dt from buf to dest (a comm rank) with
// the given tag. Sends are eager: the payload is packed and buffered by the
// transport, so Send never blocks on the receiver (MPI permits buffered
// semantics for standard-mode sends; the paper's protocol is agnostic to
// this choice).
func (c *Comm) Send(buf []byte, count int, dt *Datatype, dest, tag int) error {
	if err := checkUserTag(tag); err != nil {
		return err
	}
	return c.sendInternal(buf, count, dt, dest, tag, c.ctx, false)
}

// SendBytes sends a raw byte payload.
func (c *Comm) SendBytes(data []byte, dest, tag int) error {
	return c.Send(data, len(data), TypeByte, dest, tag)
}

func (c *Comm) sendInternal(buf []byte, count int, dt *Datatype, dest, tag int, ctx uint32, posted bool) error {
	wr, err := c.WorldRank(dest)
	if err != nil {
		return err
	}
	packed, err := dt.Pack(buf, count)
	if err != nil {
		return err
	}
	return c.proc.send(wr, tag, ctx, packed, posted)
}

// Bsend is a buffered send: identical delivery semantics to Send, but the
// payload size is accounted against the buffer attached with BufferAttach,
// as in MPI_Bsend. The accounting models the reservation: capacity must
// cover the single largest outstanding message.
func (c *Comm) Bsend(buf []byte, count int, dt *Datatype, dest, tag int) error {
	size := count * dt.Size()
	if size > c.proc.attachCap {
		return fmt.Errorf("%w: need %d bytes, attached %d", ErrBuffer, size, c.proc.attachCap)
	}
	if size > c.proc.attachUsed {
		c.proc.attachUsed = size
	}
	return c.Send(buf, count, dt, dest, tag)
}

// Recv blocks until a message matching (src, tag) on this communicator
// arrives, unpacks it into buf, and returns its status. src may be
// AnySource and tag may be AnyTag.
func (c *Comm) Recv(buf []byte, count int, dt *Datatype, src, tag int) (Status, error) {
	req, err := c.Irecv(buf, count, dt, src, tag)
	if err != nil {
		return Status{}, err
	}
	return req.Wait()
}

// RecvBytes receives a raw byte payload into buf.
func (c *Comm) RecvBytes(buf []byte, src, tag int) (Status, error) {
	return c.Recv(buf, len(buf), TypeByte, src, tag)
}

// Sendrecv performs a combined send and receive, safe against exchange
// deadlock (sends are eager).
func (c *Comm) Sendrecv(
	sendBuf []byte, sendCount int, sendType *Datatype, dest, sendTag int,
	recvBuf []byte, recvCount int, recvType *Datatype, src, recvTag int,
) (Status, error) {
	rreq, err := c.Irecv(recvBuf, recvCount, recvType, src, recvTag)
	if err != nil {
		return Status{}, err
	}
	if err := c.Send(sendBuf, sendCount, sendType, dest, sendTag); err != nil {
		return Status{}, err
	}
	return rreq.Wait()
}

// Probe blocks until a message matching (src, tag) is available and returns
// its status without receiving it.
func (c *Comm) Probe(src, tag int) (Status, error) {
	for {
		if env := c.proc.peekUnexpected(src, tag, c); env != nil {
			return c.statusFor(env), nil
		}
		if _, err := c.proc.drainOne(true); err != nil {
			return Status{}, err
		}
	}
}

// Iprobe polls for a matching message; found reports whether one is
// available. It drains any transport arrivals first, so it also serves as a
// progress call.
func (c *Comm) Iprobe(src, tag int) (st Status, found bool, err error) {
	for {
		got, err := c.proc.drainOne(false)
		if err != nil {
			return Status{}, false, err
		}
		if !got {
			break
		}
	}
	if env := c.proc.peekUnexpected(src, tag, c); env != nil {
		return c.statusFor(env), true, nil
	}
	return Status{}, false, nil
}

func (c *Comm) statusFor(env *Envelope) Status {
	srcComm, _ := c.worldToComm(env.SrcWorld)
	return Status{Source: srcComm, Tag: env.Tag, Bytes: len(env.Data)}
}

// SendPacked transmits an already-packed payload on the communicator's
// point-to-point plane. No user-tag restriction is applied: this entry point
// exists for protocol layers (such as the checkpoint coordination layer)
// that frame user payloads with their own headers and reserve internal tags
// above MaxUserTag. Application code should use Send.
//
// The message takes data over as it is, without a copy: the caller built
// data for this message and must not modify it after the call. The
// in-memory interconnect hands the same slice to the receiver, and a
// socket transport may write it after SendPacked returns.
func (c *Comm) SendPacked(data []byte, dest, tag int) error {
	return c.sendPacked(data, dest, tag, c.ctx, false)
}

// PostPacked is SendPacked for a non-blocking send: the transport may
// still be writing the message when it returns. data is handed over as in
// SendPacked, which is what lets the send complete at once.
func (c *Comm) PostPacked(data []byte, dest, tag int) error {
	return c.sendPacked(data, dest, tag, c.ctx, true)
}

func (c *Comm) sendPacked(data []byte, dest, tag int, ctx uint32, posted bool) error {
	wr, err := c.WorldRank(dest)
	if err != nil {
		return err
	}
	return c.proc.send(wr, tag, ctx, data, posted)
}

// IrecvPacked posts a non-blocking receive of a packed payload, with no
// user-tag restriction. For protocol layers; see SendPacked.
//
// The request completes with the message's own bytes instead of a copy:
// Request.Data returns them. They are a view of the frame the message
// arrived in, or, on the in-memory interconnect, the buffer its sender
// handed over; nobody else modifies them, so the caller may read them for
// as long as it likes, and copies only what it keeps beyond that. There
// is no receive buffer, so nothing is truncated: the caller checks the
// length against what it can take.
func (c *Comm) IrecvPacked(src, tag int) (*Request, error) {
	if src != AnySource {
		if _, err := c.WorldRank(src); err != nil {
			return nil, err
		}
	}
	return c.proc.post(&Request{proc: c.proc, kind: reqRecv, view: true, src: src, tag: tag, comm: c, ctx: c.ctx}), nil
}

// RecvPacked receives a packed payload, blocking, and returns its bytes
// as IrecvPacked's request does. For protocol layers; see SendPacked.
func (c *Comm) RecvPacked(src, tag int) (Status, []byte, error) {
	req, err := c.IrecvPacked(src, tag)
	if err != nil {
		return Status{}, nil, err
	}
	st, err := req.Wait()
	return st, req.buf, err
}

// CollCtx returns the communicator's collective-plane context id. Protocol
// layers use it to keep their own collective plumbing invisible to
// application wildcard receives on the point-to-point plane.
func (c *Comm) CollCtx() uint32 { return c.collCtx() }

// SendPackedColl is SendPacked on the communicator's collective plane,
// and hands data over in the same way.
func (c *Comm) SendPackedColl(data []byte, dest, tag int) error {
	return c.sendPacked(data, dest, tag, c.collCtx(), false)
}

// RecvPackedColl is RecvPacked on the communicator's collective plane.
func (c *Comm) RecvPackedColl(src, tag int) (Status, []byte, error) {
	req := c.proc.post(&Request{proc: c.proc, kind: reqRecv, view: true, src: src, tag: tag, comm: c, ctx: c.collCtx()})
	st, err := req.Wait()
	return st, req.buf, err
}

func checkUserTag(tag int) error {
	if tag < 0 || tag > MaxUserTag {
		return fmt.Errorf("%w: tag %d outside [0,%d]", ErrInvalid, tag, MaxUserTag)
	}
	return nil
}
