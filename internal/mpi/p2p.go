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

// recvInternal is a blocking receive on an explicit context id (collective
// plane). Wildcards are permitted.
func (p *Proc) recvInternal(buf []byte, src, tag int, c *Comm, ctx uint32) (Status, error) {
	req := &Request{
		proc: p, kind: reqRecv, buf: buf, count: len(buf), dt: TypeByte,
		src: src, tag: tag, comm: c, ctx: ctx,
	}
	if env := p.takeUnexpected(req); env != nil {
		req.complete(env)
	} else {
		p.posted = append(p.posted, req)
	}
	return req.Wait()
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
func (c *Comm) SendPacked(data []byte, dest, tag int) error {
	return c.sendPacked(data, dest, tag, c.ctx, false)
}

// PostPacked is SendPacked for a non-blocking send: the transport may
// still be writing the message when it returns. The message owns a copy
// of data, so the caller may reuse data at once.
func (c *Comm) PostPacked(data []byte, dest, tag int) error {
	return c.sendPacked(data, dest, tag, c.ctx, true)
}

func (c *Comm) sendPacked(data []byte, dest, tag int, ctx uint32, posted bool) error {
	wr, err := c.WorldRank(dest)
	if err != nil {
		return err
	}
	return c.proc.send(wr, tag, ctx, append([]byte(nil), data...), posted)
}

// IrecvPacked posts a non-blocking receive of a packed payload into buf,
// with no user-tag restriction. For protocol layers; see SendPacked.
func (c *Comm) IrecvPacked(buf []byte, src, tag int) (*Request, error) {
	if src != AnySource {
		if _, err := c.WorldRank(src); err != nil {
			return nil, err
		}
	}
	req := &Request{
		proc: c.proc, kind: reqRecv,
		buf: buf, count: len(buf), dt: TypeByte,
		src: src, tag: tag, comm: c, ctx: c.ctx,
	}
	if env := c.proc.takeUnexpected(req); env != nil {
		req.complete(env)
	} else {
		c.proc.posted = append(c.proc.posted, req)
	}
	return req, nil
}

// RecvPacked receives a packed payload into buf, blocking. For protocol
// layers; see SendPacked.
func (c *Comm) RecvPacked(buf []byte, src, tag int) (Status, error) {
	req, err := c.IrecvPacked(buf, src, tag)
	if err != nil {
		return Status{}, err
	}
	return req.Wait()
}

// CollCtx returns the communicator's collective-plane context id. Protocol
// layers use it to keep their own collective plumbing invisible to
// application wildcard receives on the point-to-point plane.
func (c *Comm) CollCtx() uint32 { return c.collCtx() }

// SendPackedColl is SendPacked on the communicator's collective plane.
func (c *Comm) SendPackedColl(data []byte, dest, tag int) error {
	return c.sendPacked(data, dest, tag, c.collCtx(), false)
}

// RecvPackedColl is RecvPacked on the communicator's collective plane.
func (c *Comm) RecvPackedColl(buf []byte, src, tag int) (Status, error) {
	return c.proc.recvInternal(buf, src, tag, c, c.collCtx())
}

func checkUserTag(tag int) error {
	if tag < 0 || tag > MaxUserTag {
		return fmt.Errorf("%w: tag %d outside [0,%d]", ErrInvalid, tag, MaxUserTag)
	}
	return nil
}
