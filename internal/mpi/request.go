package mpi

import "fmt"

type reqKind uint8

const (
	reqSend reqKind = iota
	reqRecv
)

// Request represents an in-flight non-blocking operation. Send requests
// complete immediately (sends are eager); receive requests complete when a
// matching message is dispatched to them.
type Request struct {
	proc *Proc
	kind reqKind
	done bool
	// view marks a view receive (Comm.IrecvPacked): it has no buffer to
	// fill, and completes with buf set to the message's own bytes.
	view bool

	// Receive parameters.
	buf   []byte
	count int
	dt    *Datatype
	src   int // comm rank or AnySource
	tag   int // or AnyTag
	comm  *Comm
	ctx   uint32

	status Status
	err    error
}

// Data returns the payload a completed view receive (Comm.IrecvPacked)
// holds: the message's own bytes, not a copy.
func (r *Request) Data() []byte { return r.buf }

// post completes a receive request at once from the unexpected queue when
// a match already arrived, and queues it as posted otherwise.
func (p *Proc) post(req *Request) *Request {
	if env := p.takeUnexpected(req); env != nil {
		req.complete(env)
	} else {
		p.posted = append(p.posted, req)
	}
	return req
}

// Done reports whether the request has completed. It does not progress the
// engine; use Test for that.
func (r *Request) Done() bool { return r.done }

// IsRecv reports whether this is a receive request.
func (r *Request) IsRecv() bool { return r.kind == reqRecv }

func (r *Request) matches(env *Envelope) bool {
	if r.done || r.kind != reqRecv {
		return false
	}
	if env.Ctx != r.ctx {
		return false
	}
	commSrc, ok := r.comm.worldToComm(env.SrcWorld)
	if !ok {
		return false
	}
	if r.src != AnySource && r.src != commSrc {
		return false
	}
	if r.tag != AnyTag && r.tag != env.Tag {
		return false
	}
	return true
}

// complete unpacks the payload into the request's buffer, or keeps it for a
// view receive, and records status.
func (r *Request) complete(env *Envelope) {
	r.done = true
	commSrc, _ := r.comm.worldToComm(env.SrcWorld)
	r.status = Status{Source: commSrc, Tag: env.Tag, Bytes: len(env.Data)}
	r.proc.stats.Recvs++
	r.proc.stats.BytesRecvd += uint64(len(env.Data))
	if r.view {
		r.buf = env.Data
		return
	}

	maxBytes := r.count * r.dt.Size()
	if len(env.Data) > maxBytes {
		r.err = fmt.Errorf("%w: %d bytes into %d-byte buffer", ErrTruncate, len(env.Data), maxBytes)
		return
	}
	if r.dt.Size() == 0 {
		return
	}
	n := len(env.Data) / r.dt.Size()
	if _, err := r.dt.Unpack(env.Data, r.buf, n); err != nil {
		r.err = err
	}
}

// Isend starts a non-blocking send. The payload is packed into a buffer
// the message owns, so buf may be reused at once and the returned request
// is already complete. The message is posted (transport.Message.Posted):
// a socket transport may queue its frame and write it after Isend
// returns, behind the sends before it and ahead of the sends after it.
func (c *Comm) Isend(buf []byte, count int, dt *Datatype, dest, tag int) (*Request, error) {
	if err := checkUserTag(tag); err != nil {
		return nil, err
	}
	if err := c.sendInternal(buf, count, dt, dest, tag, c.ctx, true); err != nil {
		return nil, err
	}
	return &Request{proc: c.proc, kind: reqSend, done: true}, nil
}

// Irecv posts a non-blocking receive. The buffer must not be read until the
// request completes (via Wait or a successful Test).
func (c *Comm) Irecv(buf []byte, count int, dt *Datatype, src, tag int) (*Request, error) {
	if count < 0 {
		return nil, fmt.Errorf("%w: count %d", ErrInvalid, count)
	}
	if src != AnySource {
		if _, err := c.WorldRank(src); err != nil {
			return nil, err
		}
	}
	return c.proc.post(&Request{
		proc: c.proc, kind: reqRecv,
		buf: buf, count: count, dt: dt,
		src: src, tag: tag, comm: c, ctx: c.ctx,
	}), nil
}

// Wait blocks until the request completes and returns its status.
func (r *Request) Wait() (Status, error) {
	for !r.done {
		if _, err := r.proc.drainOne(true); err != nil {
			return Status{}, err
		}
	}
	return r.status, r.err
}

// Test progresses the engine without blocking and reports whether the
// request has completed. When it has, the status is valid.
func (r *Request) Test() (st Status, ok bool, err error) {
	for !r.done {
		got, err := r.proc.drainOne(false)
		if err != nil {
			return Status{}, false, err
		}
		if !got {
			return Status{}, false, nil
		}
	}
	return r.status, true, r.err
}

// Cancel removes a pending receive request from the posted queue. Completed
// requests are unaffected. It mirrors MPI_Cancel for receives.
func (r *Request) Cancel() {
	if r.done || r.kind != reqRecv {
		return
	}
	posted := r.proc.posted
	for i, req := range posted {
		if req == r {
			r.proc.posted = append(posted[:i], posted[i+1:]...)
			return
		}
	}
}

// Waitall blocks until every request has completed. The first error is
// returned, but all requests are progressed regardless.
func Waitall(reqs []*Request) ([]Status, error) {
	sts := make([]Status, len(reqs))
	var first error
	for i, r := range reqs {
		st, err := r.Wait()
		sts[i] = st
		if err != nil && first == nil {
			first = err
		}
	}
	return sts, first
}

// Waitany blocks until at least one request completes and returns its index
// and status. Completed requests that were already consumed may be passed;
// indices of nil requests are skipped. If all requests are nil, it returns
// index -1.
func Waitany(reqs []*Request) (int, Status, error) {
	var proc *Proc
	for _, r := range reqs {
		if r != nil {
			proc = r.proc
			break
		}
	}
	if proc == nil {
		return -1, Status{}, nil
	}
	for {
		for i, r := range reqs {
			if r != nil && r.done {
				return i, r.status, r.err
			}
		}
		if _, err := proc.drainOne(true); err != nil {
			return -1, Status{}, err
		}
	}
}

// Waitsome blocks until at least one request completes, then returns the
// indices and statuses of all currently completed requests.
func Waitsome(reqs []*Request) ([]int, []Status, error) {
	idx, st, err := Waitany(reqs)
	if err != nil {
		return nil, nil, err
	}
	if idx < 0 {
		return nil, nil, nil
	}
	indices := []int{idx}
	statuses := []Status{st}
	for i, r := range reqs {
		if i != idx && r != nil && r.done {
			indices = append(indices, i)
			statuses = append(statuses, r.status)
		}
	}
	return indices, statuses, nil
}

// Testall progresses the engine and reports whether all requests have
// completed.
func Testall(reqs []*Request) (bool, error) {
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if _, ok, err := r.Test(); err != nil {
			return false, err
		} else if !ok {
			return false, nil
		}
	}
	return true, nil
}
