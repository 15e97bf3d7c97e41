// Package mpi is a from-scratch message-passing library with MPI semantics,
// built for the C3 checkpoint-recovery reproduction. It plays the role of the
// "Native MPI" box in the paper's system architecture (Figure 1): the
// checkpointing coordination layer in internal/ckpt interposes on calls into
// this package, exactly as C3 interposes on a vendor MPI.
//
// The library implements:
//
//   - blocking point-to-point communication with tag and communicator
//     matching, including the AnySource and AnyTag wildcards;
//   - non-blocking communication (Isend/Irecv) with Wait/Test families;
//   - non-overtaking delivery per (source, communicator, tag) signature,
//     while messages with different signatures may be received in any order
//     the application asks for (the property Section 2.4 of the paper calls
//     out as breaking Chandy-Lamport style FIFO assumptions);
//   - derived datatypes (contiguous, vector, indexed, struct) that form a
//     hierarchy, with pack/unpack of non-contiguous buffers;
//   - collective operations (Barrier, Bcast, Gather(v), Scatter, Allgather,
//     Alltoall(v), Reduce, Allreduce, Scan) that do not synchronize more
//     than their data dependencies require;
//   - communicator duplication and splitting;
//   - buffer attach/detach accounting for buffered sends.
//
// Concurrency model: a World holds one Proc per rank. Each Proc must be used
// from a single goroutine, its "rank goroutine" — the same discipline a
// single-threaded MPI process obeys. The transport below is safe for
// concurrent use.
package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"

	"c3/internal/transport"
	"c3/internal/wire"
)

// Wildcards for receive matching. They are valid only where documented:
// AnySource/AnyTag for the source and tag arguments of receive operations.
const (
	// AnySource matches a message from any source rank.
	AnySource = -1
	// AnyTag matches a message with any tag.
	AnyTag = -1
)

// MaxUserTag is the largest tag application code may use. Tags above it are
// reserved for internal use by collectives and by layers built on top of
// this package (the checkpoint protocol layer reserves a range too).
const MaxUserTag = 1 << 20

// Errors returned by communication operations.
var (
	// ErrDown reports that the local process or the network was killed
	// (fail-stop). All subsequent operations on the Proc return it.
	ErrDown = errors.New("mpi: process down")
	// ErrTruncate reports that an incoming message was longer than the
	// receive buffer.
	ErrTruncate = errors.New("mpi: message truncated")
	// ErrInvalid reports invalid arguments.
	ErrInvalid = errors.New("mpi: invalid argument")
	// ErrBuffer reports buffered-send accounting exhaustion.
	ErrBuffer = errors.New("mpi: attached buffer exhausted")
)

// Status describes a completed receive.
type Status struct {
	// Source is the sender's rank in the receive's communicator.
	Source int
	// Tag is the message tag.
	Tag int
	// Bytes is the packed payload size in bytes.
	Bytes int
}

// Count returns the number of elements of the given datatype in the message.
func (s Status) Count(dt *Datatype) int {
	if dt == nil || dt.Size() == 0 {
		return 0
	}
	return s.Bytes / dt.Size()
}

// Envelope is the unit the MPI layer exchanges over the transport.
// It is exported so that diagnostic tooling can inspect traffic, but
// applications never construct Envelopes directly.
//
// An envelope is framed at most once: Proc.send makes one per message
// and hands it to one transport Send, which frames it before it returns
// (a posted frame is queued already built), and a received envelope is
// delivered, never sent on. So WireParts may build the head in the
// envelope itself.
type Envelope struct {
	SrcWorld int // world rank of the sender
	Tag      int
	Ctx      uint32             // communicator context id
	head     [envelopeHead]byte // WireParts' head; beside Ctx it fills a 64-byte struct
	Data     []byte             // packed payload
}

// TransportSize implements transport.Sizer.
func (e *Envelope) TransportSize() int { return len(e.Data) }

// WireKind implements transport.WirePayload.
func (e *Envelope) WireKind() uint8 { return transport.WireKindEnvelope }

// envelopeHead is the length of an envelope's encoding before its data:
// source, tag, context and the data's length prefix.
const envelopeHead = 4 + 8 + 4 + 4

// MarshalWire implements transport.WirePayload.
func (e *Envelope) MarshalWire() []byte {
	b := make([]byte, envelopeHead+len(e.Data))
	e.putHead(b)
	copy(b[envelopeHead:], e.Data)
	return b
}

// WireParts implements transport.SplitPayload: the data is the message's
// own (see Comm.SendPacked), so a wire may frame or write it from where it
// lies. The head is the envelope's own buffer, which the envelope's one
// framing copies into its frame.
func (e *Envelope) WireParts() (head, body []byte) {
	e.putHead(e.head[:])
	return e.head[:], e.Data
}

// putHead writes the encoding before the data into b[:envelopeHead]:
// source, tag, context and the data's length prefix.
func (e *Envelope) putHead(b []byte) {
	_ = b[envelopeHead-1]
	binary.LittleEndian.PutUint32(b[0:], uint32(e.SrcWorld))
	binary.LittleEndian.PutUint64(b[4:], uint64(e.Tag))
	binary.LittleEndian.PutUint32(b[12:], e.Ctx)
	binary.LittleEndian.PutUint32(b[16:], uint32(len(e.Data)))
}

func init() {
	// The decoder keeps a view of the frame it is handed (DecodeWirePayload
	// hands the bytes over): a received envelope's Data is its frame body.
	transport.RegisterWireDecoder(transport.WireKindEnvelope, func(data []byte) (any, error) {
		r := wire.NewReader(data)
		e := &Envelope{SrcWorld: int(r.U32())}
		e.Tag = int(r.I64())
		e.Ctx = r.U32()
		e.Data = r.View32()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("mpi: corrupt envelope frame: %w", err)
		}
		return e, nil
	})
}

// World is a set of communicating processes. It owns the transport
// interconnect and a Proc per rank (with a remote interconnect, only the
// locally hosted rank's Proc is usable).
type World struct {
	n     int
	nw    transport.Interconnect
	procs []*Proc

	// ctxCounter allocates communicator context ids; see Comm. Each
	// communicator consumes two ids (point-to-point and collective planes).
	// It is only mutated under collective agreement, from rank goroutines.
	ctxCounter uint32
}

// WorldOption configures a World.
type WorldOption func(*worldConfig)

type worldConfig struct {
	transportOpts []transport.Option
	ic            transport.Interconnect
}

// WithTransportOptions forwards options to the underlying network, for
// example latency models.
func WithTransportOptions(opts ...transport.Option) WorldOption {
	return func(c *worldConfig) { c.transportOpts = append(c.transportOpts, opts...) }
}

// WithScheduler installs a virtual schedule engine on the world's network:
// rank interleaving, message delivery order, and logical time all become a
// pure function of the engine's seed (or replayed trace). The runtime must
// bracket each rank goroutine with Scheduler().Start/Exit.
func WithScheduler(s *transport.Scheduler) WorldOption {
	return func(c *worldConfig) { c.transportOpts = append(c.transportOpts, transport.WithScheduler(s)) }
}

// WithInterconnect runs the world over an externally constructed
// interconnect (for example a tcp.Mesh hosting one rank of a multi-process
// world) instead of a fresh in-memory network. Transport options and
// WithScheduler are ignored when an interconnect is supplied.
func WithInterconnect(ic transport.Interconnect) WorldOption {
	return func(c *worldConfig) { c.ic = ic }
}

// NewWorld creates a world of n ranks.
func NewWorld(n int, opts ...WorldOption) *World {
	var cfg worldConfig
	for _, o := range opts {
		o(&cfg)
	}
	ic := cfg.ic
	if ic == nil {
		ic = transport.NewNetwork(n, cfg.transportOpts...)
	} else if ic.Size() != n {
		panic(fmt.Sprintf("mpi: interconnect has %d ranks, world wants %d", ic.Size(), n))
	}
	w := &World{
		n:          n,
		nw:         ic,
		ctxCounter: 2, // ctx 0/1 are the world communicator's planes
	}
	w.procs = make([]*Proc, n)
	for r := 0; r < n; r++ {
		w.procs[r] = newProc(w, r)
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.n }

// Proc returns the library instance for a rank. The returned Proc must be
// used only from that rank's goroutine.
func (w *World) Proc(rank int) *Proc { return w.procs[rank] }

// Network exposes the underlying transport interconnect (for stats and
// failure injection by the cluster runtime).
func (w *World) Network() transport.Interconnect { return w.nw }

// Scheduler returns the network's virtual schedule engine, nil under real
// scheduling.
func (w *World) Scheduler() *transport.Scheduler { return w.nw.Scheduler() }

// Kill fail-stops one rank.
func (w *World) Kill(rank int) { w.nw.Kill(rank) }

// Shutdown tears down the whole world; all blocked operations return ErrDown.
func (w *World) Shutdown() { w.nw.Shutdown() }

// Proc is one rank's MPI library instance.
type Proc struct {
	world *World
	rank  int
	name  string
	ep    transport.Port

	// Receive-side matching state. Arrival order is preserved in
	// unexpected; posted holds pending non-blocking receives in post order.
	unexpected []*Envelope
	posted     []*Request

	worldComm *Comm

	attachCap  int // Bsend buffer capacity (bytes)
	attachUsed int // modeled outstanding buffered bytes

	stats ProcStats
}

// ProcStats counts per-rank communication activity.
type ProcStats struct {
	Sends      uint64
	Recvs      uint64
	BytesSent  uint64
	BytesRecvd uint64
}

func newProc(w *World, rank int) *Proc {
	p := &Proc{
		world: w,
		rank:  rank,
		name:  fmt.Sprintf("node%03d", rank),
		ep:    w.nw.Endpoint(rank),
	}
	group := make([]int, w.n)
	for i := range group {
		group[i] = i
	}
	p.worldComm = &Comm{proc: p, ctx: 0, group: group, myRank: rank}
	p.worldComm.buildIndex()
	return p
}

// Rank returns this process's world rank.
func (p *Proc) Rank() int { return p.rank }

// Size returns the world size.
func (p *Proc) Size() int { return p.world.n }

// Name returns the processor name (part of the "basic MPI state" the
// checkpoint layer saves).
func (p *Proc) Name() string { return p.name }

// World returns the containing world.
func (p *Proc) World() *World { return p.world }

// CommWorld returns the world communicator for this rank.
func (p *Proc) CommWorld() *Comm { return p.worldComm }

// Stats returns a copy of this rank's counters.
func (p *Proc) Stats() ProcStats { return p.stats }

// BufferAttach models MPI_Buffer_attach: reserve capacity for buffered
// sends. The checkpoint layer records the attached size as MPI state.
func (p *Proc) BufferAttach(bytes int) error {
	if bytes < 0 {
		return fmt.Errorf("%w: negative buffer size %d", ErrInvalid, bytes)
	}
	p.attachCap = bytes
	p.attachUsed = 0
	return nil
}

// BufferDetach models MPI_Buffer_detach and returns the attached capacity.
func (p *Proc) BufferDetach() int {
	c := p.attachCap
	p.attachCap = 0
	p.attachUsed = 0
	return c
}

// AttachedBuffer returns the currently attached buffer capacity.
func (p *Proc) AttachedBuffer() int { return p.attachCap }

// send transmits a packed payload, which the envelope owns from here on.
// A posted send (Isend) may return before the transport has written it.
func (p *Proc) send(destWorld, tag int, ctx uint32, data []byte, posted bool) error {
	env := &Envelope{SrcWorld: p.rank, Tag: tag, Ctx: ctx, Data: data}
	p.stats.Sends++
	p.stats.BytesSent += uint64(len(data))
	err := p.world.nw.Send(transport.Message{
		From:    p.rank,
		To:      destWorld,
		Class:   transport.Data,
		Payload: env,
		Posted:  posted,
	})
	if err != nil {
		return ErrDown
	}
	return nil
}

// drainOne pulls one message from the transport and dispatches it. With
// block=false it returns (false, nil) when nothing is pending. A virtual-
// scheduler stall is passed through unchanged so diagnosability survives
// the layers above (it is a protocol deadlock, not a node failure).
func (p *Proc) drainOne(block bool) (bool, error) {
	var msg transport.Message
	var err error
	if block {
		msg, err = p.ep.Recv()
		if err != nil {
			if errors.Is(err, transport.ErrStalled) {
				return false, err
			}
			return false, ErrDown
		}
	} else {
		var ok bool
		msg, ok, err = p.ep.TryRecv()
		if err != nil {
			return false, ErrDown
		}
		if !ok {
			return false, nil
		}
	}
	env, ok := msg.Payload.(*Envelope)
	if !ok {
		return false, fmt.Errorf("%w: unexpected payload %T", ErrInvalid, msg.Payload)
	}
	p.dispatch(env)
	return true, nil
}

// dispatch matches an arrived envelope against posted receives (in post
// order), falling back to the unexpected queue (in arrival order).
func (p *Proc) dispatch(env *Envelope) {
	for i, req := range p.posted {
		if req.matches(env) {
			p.posted = append(p.posted[:i], p.posted[i+1:]...)
			req.complete(env)
			return
		}
	}
	p.unexpected = append(p.unexpected, env)
}

// takeUnexpected removes and returns the earliest-arrived unexpected
// envelope matching the request, or nil.
func (p *Proc) takeUnexpected(req *Request) *Envelope {
	for i, env := range p.unexpected {
		if req.matches(env) {
			p.unexpected = append(p.unexpected[:i], p.unexpected[i+1:]...)
			return env
		}
	}
	return nil
}

// peekUnexpected returns the earliest matching unexpected envelope without
// removing it (used by Probe).
func (p *Proc) peekUnexpected(src, tag int, c *Comm) *Envelope {
	for _, env := range p.unexpected {
		if envMatches(env, src, tag, c) {
			return env
		}
	}
	return nil
}

func envMatches(env *Envelope, src, tag int, c *Comm) bool {
	if env.Ctx != c.ctx {
		return false
	}
	commSrc, ok := c.worldToComm(env.SrcWorld)
	if !ok {
		return false
	}
	if src != AnySource && src != commSrc {
		return false
	}
	if tag != AnyTag && tag != env.Tag {
		return false
	}
	return true
}
