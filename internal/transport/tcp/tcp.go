// Package tcp is the wire-level transport backend: a transport.Interconnect
// whose ranks are separate OS processes connected by TCP sockets.
//
// Each process owns one Mesh hosting exactly one local rank. The mesh
// listens on its own address, dials peers lazily on first send, and frames
// every message with a length prefix (internal/wire encoding). Delivery
// keeps the per-(source, destination) FIFO guarantee the MPI layer needs,
// because each ordered pair maps to one TCP connection, fed by one send
// queue and one writer at a time. A blocking send finding the connection
// idle writes its frame itself; a posted send (transport.Message.Posted)
// queues its frame and returns, and a writer goroutine hands everything
// queued to the kernel in one writev.
//
// Failure model: a peer that dies takes its sockets with it. Sends toward
// it fail, are counted as dropped, and do not error the sender — exactly
// the in-memory Network's semantics for messages addressed to a killed
// endpoint. When the peer is re-executed and listens again on the same
// address, the next send re-dials, so long-lived meshes (the replicated
// stable store's) survive rank restarts. A mesh can also report the death
// itself (ReportLosses): an orderly Shutdown says goodbye on every
// outbound connection, so an inbound connection that ends without one is
// confirmed with a fresh dial and, if the peer's process is gone, answered
// with a transport.PeerLost marker queued behind its last frame.
// Every frame carries its message's generation (transport.Message.Gen)
// untouched: keeping a node's attempts apart is its demux's job.
//
// Waiting is driven by events rather than by ticks. The handshake names
// the dialer's rank, so an accepted connection from rank r wakes any dial
// loop of this mesh that is waiting on r and lifts r's redial backoff. A
// goodbye from r, or a confirmed loss of r, marks r departed: sends to it
// drop at once, with no redial, until r connects again, unless a patient
// Connect waits for that.
package tcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"c3/internal/trace"
	"c3/internal/transport"
	"c3/internal/wire"
)

// maxFrame bounds one frame body, so a corrupt or hostile length prefix
// becomes an error instead of an enormous allocation.
const maxFrame = 1 << 28

// readBuffer is the size of each inbound connection's read buffer: a whole
// queued window of 32 x 1 KiB frames fits in one read.
const readBuffer = 64 << 10

// frameHeaderLen is gen(8) + from(4) + to(4) + class(1) + kind(1) +
// trace span(8) + trace lamport clock(8); gen is transport.Message.Gen.
// The last 16 bytes are the causal tracing context (trace.Ctx): the
// receive path merges the sender's Lamport clock and records a recv event
// sharing the edge's span id, which is what lets cmd/c3trace stitch
// per-process flight recordings into one cross-rank happens-before
// timeline. All ranks of a world run the same build, so the header needs
// no negotiation.
const frameHeaderLen = 34

// Connection-establishment handshake: the dialer announces magic(4) + its
// rank(4), and the acceptor answers one byte. The rank is what lets an
// accepted connection count as the dialer's arrival; the answer is what
// tells a live process from a dying one's backlog (peerGone).
const (
	hsLen    = 8
	hsMagic  = 0x43334853 // "C3HS"
	hsAccept = 0x06
	// hsTimeout bounds each side's wait for the other's handshake bytes so
	// a wedged or foreign peer cannot pin the connection forever.
	hsTimeout = 2 * time.Second
)

// Option configures a Mesh.
type Option func(*Mesh)

// WithDialWindow sets how long the first connection attempt to a peer keeps
// retrying (covers start-up ordering: a peer's listener may not be up yet).
// Re-dials after a connection loss use a much shorter window, so sends to a
// dead rank drop quickly instead of stalling the sender.
func WithDialWindow(d time.Duration) Option {
	return func(m *Mesh) { m.dialWindow = d }
}

// Mesh is one process's attachment to the world: the local rank's listener
// plus lazily dialed connections to every peer.
type Mesh struct {
	self       int
	n          int
	addrs      []string
	dialWindow time.Duration

	ln    net.Listener
	port  port
	debug bool // C3_TCP_DEBUG: trace dials, probes and write failures

	mu      sync.Mutex
	peers   map[int]*peerConn
	inbound map[net.Conn]struct{}
	down    atomic.Bool
	closed  chan struct{} // closed by Shutdown: wakes every waiting dial loop
	// lossReports turns on PeerLost markers (ReportLosses).
	lossReports atomic.Bool

	// The partition fault model, consulted where frames arrive: the
	// readers drop or hold the frames of a peer a rule cuts off
	// (SetPartition).
	cut *transport.Cut

	statMu sync.Mutex
	stats  transport.Stats

	// expect holds the answers a local receiver awaits into buffers of its
	// own (Expect); the readers land matching frames' bodies there.
	expect transport.Expectations

	polls atomic.Uint64 // reader polls begun (pollConn), read by tests

	wg sync.WaitGroup
}

// wireFrame is one encoded message. A small message is one buffer — length
// prefix, frame header, body — handed to the kernel with one write. A bulk
// body (checkpoint fragments) is not copied behind the header: it stays
// where the payload encoded it and goes out with head in one writev.
type wireFrame struct {
	head []byte
	body []byte // nil when head carries the body
	// done, set while a blocking Send waits behind the writer, is closed
	// once the frame is in the kernel or counted as dropped.
	done chan struct{}
}

// bulkBody is the body size from which a frame is sent as two segments.
// Go's writev path costs a frame about a microsecond more than a plain
// write (64 B ping-pong over loopback: +11 %, slower in 8 of 10 paired
// runs), which a copy of a few KiB undercuts and a copy of megabytes does
// not (8 MiB rs 4+2 commit: 8 % faster without it).
const bulkBody = 4 << 10

// writeBatch hands frames to c with one write, or with one writev when
// they span more than one buffer, and returns how many whole frames it
// wrote. A single small frame takes the plain write: Go's writev path
// costs a frame about a microsecond more (see bulkBody). iov is the
// caller's segment list, reused from batch to batch.
func writeBatch(c net.Conn, iov *net.Buffers, frames []wireFrame) (int, error) {
	if len(frames) == 1 && frames[0].body == nil {
		if _, err := c.Write(frames[0].head); err != nil {
			return 0, err
		}
		return 1, nil
	}
	bufs := (*iov)[:0]
	for _, f := range frames {
		bufs = append(bufs, f.head)
		if f.body != nil {
			bufs = append(bufs, f.body)
		}
	}
	*iov = bufs
	written, err := iov.WriteTo(c) // consumes *iov
	clear(bufs)                    // the frames' buffers are their senders' again
	*iov = bufs[:0]
	if err == nil {
		return len(frames), nil
	}
	n := 0
	for _, f := range frames {
		size := int64(len(f.head) + len(f.body))
		if written < size {
			break
		}
		written -= size
		n++
	}
	return n, err
}

// peerConn is the outbound connection to one peer.
//
// The writer role is the connection's only serializer: whoever holds it
// dials, probes and writes, and owns raw, dead, connected and iov. qmu
// guards the send queue and the role and is never held across I/O, so a
// post never waits for a write. conn is written by the role holder under
// qmu and read by it without; Shutdown reads it under qmu. The peer's
// events (arrival, departure) and the redial backoff are atomics, read
// without a lock by the read paths, which must not wait behind a dial, and
// by posts, which must not wait behind a write.
type peerConn struct {
	rank int

	conn      net.Conn
	raw       syscall.RawConn  // conn's socket, kept for connDead
	peek      func(fd uintptr) // connDead's probe of raw, made once: it sets dead
	dead      bool             // the last probe's verdict
	connected bool             // ever connected: re-dials use the short window
	iov       net.Buffers      // the writer's segment list

	qmu     sync.Mutex
	queue   []wireFrame   // frames waiting for the writer, in send order
	spare   []wireFrame   // the writer's previous batch, emptied, for reuse
	writing bool          // the writer role is held: by a Send writing inline, or by drain
	quiet   chan struct{} // closed when the role is next released (Shutdown waits on it)

	downUntil atomic.Int64  // failed-dial backoff, in Unix ns (0: none): drop sends without redialing
	downSeen  atomic.Uint64 // arrivals when the backoff began; a later one lifts it

	connecting atomic.Pointer[<-chan struct{}] // the stop of the Connect not yet served (nil: none)

	arrivals atomic.Uint64 // handshakes accepted from the peer
	byeAt    atomic.Uint64 // the arrival whose connection said goodbye or was lost (0: none)
	wake     chan struct{} // capacity 1: an arrival or departure wakes the dial loop
}

// backedOff reports whether sends must drop without redialing: a dial
// failed within redialBackoff and the peer has not connected since.
func (p *peerConn) backedOff() bool {
	until := p.downUntil.Load()
	return until != 0 && time.Now().UnixNano() < until && p.arrivals.Load() == p.downSeen.Load()
}

// setConn closes p's connection, if any, and installs c (nil: none),
// keeping its socket for connDead, whose probe closure is made here once.
// On a mesh that is down, c is closed instead, so no write starts on a
// connection Shutdown did not see, and setConn reports false. Callers hold
// the writer role.
func (m *Mesh) setConn(p *peerConn, c net.Conn) bool {
	if p.conn != nil {
		_ = p.conn.Close()
	}
	p.qmu.Lock()
	defer p.qmu.Unlock()
	if c != nil && m.down.Load() {
		_ = c.Close()
		c = nil
	}
	p.conn, p.raw = c, nil
	if sc, ok := c.(syscall.Conn); ok {
		p.raw, _ = sc.SyscallConn()
	}
	if p.peek == nil {
		p.peek = func(fd uintptr) { p.dead = peekDead(fd) }
	}
	return c != nil
}

// departed reports whether the peer's latest connection said goodbye or
// was confirmed lost. A mark from an older connection, read after the peer
// connected again, does not count.
func (p *peerConn) departed() bool {
	bye := p.byeAt.Load()
	return bye != 0 && bye == p.arrivals.Load()
}

// signal wakes the peer's dial loop, if one is waiting.
func (p *peerConn) signal() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// redialBackoff is how long sends to a peer drop immediately after a
// failed (re)dial, so only the first send after a death pays a dial
// window, not every frame queued behind it. The peer's next connection
// to this mesh lifts it, so a restarted peer is answered at once.
const redialBackoff = 200 * time.Millisecond

// confirmTimeout bounds the dial and handshake that confirm a loss report
// (peerGone). A timeout is no evidence either way, so it only caps how
// long the ended connection's reader lingers; goodbyeTimeout likewise caps
// the goodbye write to a peer that stopped reading.
const (
	confirmTimeout = 250 * time.Millisecond
	goodbyeTimeout = 100 * time.Millisecond
)

// New creates a mesh for local rank self in a world whose rank addresses
// are addrs (len(addrs) ranks). addrs[self] may use port 0; Addr reports
// the actually bound address.
func New(self int, addrs []string, opts ...Option) (*Mesh, error) {
	if self < 0 || self >= len(addrs) {
		return nil, fmt.Errorf("tcp: rank %d out of range for %d addresses", self, len(addrs))
	}
	m := &Mesh{
		self:       self,
		n:          len(addrs),
		addrs:      append([]string(nil), addrs...),
		dialWindow: 10 * time.Second,
		peers:      make(map[int]*peerConn),
		inbound:    make(map[net.Conn]struct{}),
		closed:     make(chan struct{}),
		port:       port{transport.NewInbox(self)},
		debug:      os.Getenv("C3_TCP_DEBUG") != "",
	}
	m.cut = transport.NewCut(m.port.Push)
	for _, o := range opts {
		o(m)
	}
	if m.ln == nil {
		ln, err := net.Listen("tcp", addrs[self])
		if err != nil {
			return nil, fmt.Errorf("tcp: rank %d listen %s: %w", self, addrs[self], err)
		}
		m.ln = ln
	}
	m.wg.Add(1)
	go m.acceptLoop()
	return m, nil
}

// Connect dials rank in the background, patiently: with the full dial
// window even if rank was reachable before and, if rank is departed, once
// it has connected here again. Until then every send to rank waits too, so
// frames for a peer being replaced reach the replacement. Closing stop
// (nil: never) ends the wait and drops the waiting frames. The dial holds
// the writer role, claimed for a writer goroutine or served by its holder.
func (m *Mesh) Connect(rank int, stop <-chan struct{}) {
	if rank == m.self || rank < 0 || rank >= m.n || m.down.Load() {
		return
	}
	p := m.peer(rank)
	p.connecting.Store(&stop)
	p.qmu.Lock()
	defer p.qmu.Unlock()
	if !p.writing && !m.down.Load() {
		m.claim(p)
		go m.drain(p)
	}
}

// Addr returns the mesh's bound listen address.
func (m *Mesh) Addr() string { return m.ln.Addr().String() }

// SetPartition installs directed partition rules on this mesh, replacing
// any active rule set (transport.Cut.Set). As on the in-memory Network,
// the rules govern the messages that arrive here: this mesh's readers drop
// (hold=false: a blackhole, a partition outlasting TCP's patience) or hold
// (hold=true: a short partition the kernel's retransmissions bridge) every
// frame they read from a peer the rules cut off, frames already in flight
// included, and a held frame is delivered in order at the next Heal. The
// sending side never consults a rule: a pair leaving this mesh is governed
// by the receiving mesh's rules, and its connection stays up whatever they
// are. Frames held under a previous rule set stay held.
func (m *Mesh) SetPartition(block [][2]int, hold bool) { m.cut.Set(block, hold) }

// Heal clears the partition rules and delivers every frame a hold rule
// kept, in the order it was read, ahead of any frame read after the Heal.
// The frames a drop rule discarded are gone.
func (m *Mesh) Heal() { m.noteDropped(m.cut.Heal()) }

// Self returns the local rank.
func (m *Mesh) Self() int { return m.self }

// Size implements transport.Interconnect.
func (m *Mesh) Size() int { return m.n }

// Scheduler implements transport.Interconnect: a real-socket mesh never
// runs under the virtual schedule engine.
func (m *Mesh) Scheduler() *transport.Scheduler { return nil }

// Stats implements transport.Interconnect.
func (m *Mesh) Stats() transport.Stats {
	m.statMu.Lock()
	defer m.statMu.Unlock()
	return m.stats
}

// Endpoint implements transport.Interconnect. Only the local rank has a
// live port; remote ranks' receive sides live in their own processes.
func (m *Mesh) Endpoint(rank int) transport.Port {
	if rank == m.self {
		return m.port
	}
	return transport.DownPort(rank)
}

// Kill implements transport.Interconnect: the local rank's port is killed;
// killing a remote rank is the job scheduler's business (a real SIGKILL),
// so it is a no-op here.
func (m *Mesh) Kill(rank int) {
	if rank == m.self {
		m.port.Kill()
	}
}

// Expect implements transport.Lander: a frame from e.From whose payload
// is e.Reply's kind and head, followed by exactly as many bytes as its
// body holds, is read with the body straight into that buffer.
func (m *Mesh) Expect(e *transport.Expectation) bool {
	return !m.down.Load() && m.expect.Arm(e)
}

// ArmedExpectations reports how many expectations wait for a frame.
func (m *Mesh) ArmedExpectations() int { return m.expect.Armed() }

// ReportLosses implements transport.LossReporter: from now on, an inbound
// connection that ends without a goodbye and whose peer a fresh dial
// confirms gone queues a transport.PeerLost marker behind its last frame.
func (m *Mesh) ReportLosses() { m.lossReports.Store(true) }

// Shutdown implements transport.Interconnect: close the listener and every
// connection and kill the local port, unblocking all receives. Each
// outbound connection first carries a goodbye frame, so the peer can tell
// this orderly exit from a crash. The goodbye is the connection's last
// frame: writers busy with queued frames get goodbyeTimeout to finish
// them, and whatever is still queued after that is counted as dropped. A
// writer still busy then has its connection closed under it, with no
// goodbye: its write fails, and it drops the rest and lets the role go.
func (m *Mesh) Shutdown() {
	if m.down.Swap(true) {
		return
	}
	close(m.closed)
	_ = m.ln.Close()
	m.mu.Lock()
	peers := make([]*peerConn, 0, len(m.peers))
	for _, p := range m.peers {
		peers = append(peers, p)
	}
	m.mu.Unlock()
	expired := make(chan struct{})
	timer := time.AfterFunc(goodbyeTimeout, func() { close(expired) })
	defer timer.Stop()
	for _, p := range peers {
		if quiet := p.quietChan(); quiet != nil {
			select {
			case <-quiet:
			case <-expired:
			}
		}
	}
	// The mesh is down, so no role is claimed from here on.
	outbound := make(map[int]net.Conn)
	for _, p := range peers {
		p.qmu.Lock()
		switch {
		case p.conn == nil:
		case p.writing:
			_ = p.conn.Close()
		default:
			outbound[p.rank] = p.conn
			p.conn = nil
		}
		p.qmu.Unlock()
	}
	m.mu.Lock()
	for c := range m.inbound {
		_ = c.Close()
	}
	m.mu.Unlock()
	for rank, c := range outbound {
		_ = c.SetWriteDeadline(time.Now().Add(goodbyeTimeout))
		_, _ = c.Write(m.goodbyeFrame(rank))
		_ = c.Close()
	}
	m.port.Kill()
}

// Close shuts the mesh down and waits for its background goroutines.
func (m *Mesh) Close() {
	m.Shutdown()
	m.wg.Wait()
}

// quietChan returns a channel closed when p's writer role is next
// released, or nil when no writer is active.
func (p *peerConn) quietChan() <-chan struct{} {
	p.qmu.Lock()
	defer p.qmu.Unlock()
	if !p.writing {
		return nil
	}
	if p.quiet == nil {
		p.quiet = make(chan struct{})
	}
	return p.quiet
}

// Send implements transport.Interconnect. A payload the wire cannot carry
// is refused before anything is counted or traced. A posted message
// (transport.Message.Posted) is queued for the peer's writer: it owns its
// bytes, a transport.SplitPayload's body included, so its frame may be
// written after Send returns.
func (m *Mesh) Send(msg transport.Message) error {
	if m.down.Load() {
		return transport.ErrDown
	}
	if msg.To < 0 || msg.To >= m.n {
		return fmt.Errorf("tcp: destination %d out of range [0,%d)", msg.To, m.n)
	}
	var kind uint8
	var head, body []byte
	if msg.To != m.self {
		var err error
		if kind, head, body, err = marshalBody(msg.Payload); err != nil {
			return err
		}
	}
	size := 0
	if s, ok := msg.Payload.(transport.Sizer); ok {
		size = s.TransportSize()
	}
	m.statMu.Lock()
	m.stats.MessagesSent++
	if msg.Class == transport.Control {
		m.stats.ControlMessages++
	} else {
		m.stats.DataMessages++
	}
	m.stats.DeliveredPayload += uint64(size)
	m.statMu.Unlock()

	if msg.Trace.Span == 0 {
		msg.Trace = trace.Default().Send(int32(msg.From), int32(msg.To), uint64(size))
	}
	if msg.To == m.self {
		if !m.port.Push(msg) {
			m.noteDropped(1)
		}
		return nil
	}
	m.send(m.peer(msg.To), encodeFrame(msg, kind, head, body), msg.Posted)
	return nil
}

// send hands one frame to the peer's writer role. A blocking send that
// finds the role free takes it and writes the frame itself; one that finds
// frames queued or the role held joins the queue and waits until its frame
// is in the kernel or counted as dropped. A posted frame joins the queue,
// and starts a writer goroutine if none is running; a post toward a
// departed or backed-off peer is dropped at once instead.
func (m *Mesh) send(p *peerConn, f wireFrame, posted bool) {
	if posted && p.connecting.Load() == nil && (p.departed() || p.backedOff()) {
		m.noteDropped(1)
		return
	}
	p.qmu.Lock()
	if m.down.Load() {
		p.qmu.Unlock()
		m.noteDropped(1)
		return
	}
	switch {
	case p.writing:
		if !posted {
			f.done = make(chan struct{})
		}
		p.queue = append(p.queue, f)
		p.qmu.Unlock()
		if f.done != nil {
			<-f.done
		}
		return
	case posted:
		p.queue = append(p.queue, f)
		m.claim(p)
		p.qmu.Unlock()
		go m.drain(p)
		return
	}
	m.claim(p)
	p.qmu.Unlock()
	m.noteDropped(m.writeFrames(p, []wireFrame{f}))
	p.qmu.Lock()
	if len(p.queue) > 0 || p.connecting.Load() != nil {
		go m.drain(p) // work queued meanwhile: the role passes to a writer
	} else {
		m.releaseLocked(p)
	}
	p.qmu.Unlock()
}

// claim takes p's free writer role. Callers hold p.qmu and have seen the
// role free and the mesh up under it. The role holder is counted in m.wg
// until it releases the role, so a writer handing the role over to a
// goroutine never adds to m.wg while Close may be waiting on it at zero.
func (m *Mesh) claim(p *peerConn) {
	p.writing = true
	m.wg.Add(1)
}

// releaseLocked releases p's writer role. Callers hold p.qmu and the role.
func (m *Mesh) releaseLocked(p *peerConn) {
	p.writing = false
	if p.quiet != nil {
		close(p.quiet)
		p.quiet = nil
	}
	m.wg.Done()
}

// drain is a peer's writer goroutine; it holds the writer role. It takes
// everything queued, hands it to the kernel with one liveness probe and
// one writev, and repeats until the queue is empty. Before it
// lets the role go, it serves a Connect that waits, dialing patiently.
func (m *Mesh) drain(p *peerConn) {
	var last []wireFrame
	for {
		p.qmu.Lock()
		if last != nil {
			p.spare = last
		}
		batch := p.queue
		if len(batch) == 0 {
			pending := p.connecting.Load()
			if pending == nil {
				m.releaseLocked(p)
				p.qmu.Unlock()
				return
			}
			p.qmu.Unlock()
			m.writeFrames(p, nil)
			p.connecting.CompareAndSwap(pending, nil)
			continue
		}
		p.queue, p.spare = p.spare, nil
		p.qmu.Unlock()
		m.noteDropped(m.writeFrames(p, batch))
		for _, f := range batch {
			if f.done != nil {
				close(f.done)
			}
		}
		clear(batch)
		last = batch[:0]
	}
}

// noteDropped counts n dropped messages.
func (m *Mesh) noteDropped(n int) {
	if n == 0 {
		return
	}
	m.statMu.Lock()
	m.stats.MessagesDropped += uint64(n)
	m.statMu.Unlock()
}

// marshalBody returns a payload's wire kind and encoding, or the error
// that refuses it: no wire encoding, or an encoding over the frame limit.
// The encoding is head followed by body; head is empty unless the payload
// is a transport.SplitPayload, whose body is not joined to its head here.
func marshalBody(payload any) (kind uint8, head, body []byte, err error) {
	wp, ok := payload.(transport.WirePayload)
	if !ok {
		return 0, nil, nil, fmt.Errorf("tcp: payload %T cannot cross a wire (no WirePayload)", payload)
	}
	if sp, ok := wp.(transport.SplitPayload); ok {
		head, body = sp.WireParts()
	} else {
		body = wp.MarshalWire()
	}
	if n := len(head) + len(body); n > maxFrame-frameHeaderLen {
		// The receiver treats an oversized length prefix as stream
		// corruption and drops the connection (losing queued frames behind
		// it); refuse on the send side instead.
		return 0, nil, nil, fmt.Errorf("tcp: %d-byte payload exceeds the %d-byte frame limit", n, maxFrame)
	}
	return wp.WireKind(), head, body, nil
}

// encodeFrame puts msg's length prefix and header in front of an encoding
// that marshalBody accepted. A bulk body stays where it lies and goes out
// behind the rest in one writev; anything shorter is copied into the one
// buffer.
func encodeFrame(msg transport.Message, kind uint8, head, body []byte) wireFrame {
	n := len(head) + len(body)
	if len(body) >= bulkBody {
		h := frameHead(4+frameHeaderLen+len(head), n, msg, kind)
		return wireFrame{head: append(h, head...), body: body}
	}
	h := frameHead(4+frameHeaderLen+n, n, msg, kind)
	return wireFrame{head: append(append(h, head...), body...)}
}

// frameHead writes a frame's length prefix and header for a body of
// bodyLen bytes into a buffer with room for capacity bytes.
func frameHead(capacity, bodyLen int, msg transport.Message, kind uint8) []byte {
	w := wire.NewWriter(capacity)
	w.U32(uint32(frameHeaderLen + bodyLen))
	w.U64(msg.Gen)
	w.U32(uint32(msg.From))
	w.U32(uint32(msg.To))
	w.U8(uint8(msg.Class))
	w.U8(kind)
	w.U64(msg.Trace.Span)
	w.U64(msg.Trace.Clock)
	return w.Bytes()
}

// goodbyeFrame is the empty frame an orderly Shutdown sends toward rank.
func (m *Mesh) goodbyeFrame(rank int) []byte {
	msg := transport.Message{From: m.self, To: rank, Class: transport.Control}
	return frameHead(4+frameHeaderLen, 0, msg, transport.WireKindGoodbye)
}

// peer returns (creating if needed) the connection slot for a rank.
func (m *Mesh) peer(rank int) *peerConn {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peers[rank]
	if p == nil {
		p = &peerConn{rank: rank, wake: make(chan struct{}, 1)}
		m.peers[rank] = p
	}
	return p
}

// connDead probes an outbound connection for a buffered FIN or RST with a
// non-blocking MSG_PEEK at the socket layer. Outbound connections are
// write-only in this design (replies travel on the peer's own outbound
// connection), so any readable event means the peer closed — in
// particular, a SIGKILLed peer's kernel sends FIN/RST that would otherwise
// go unnoticed until the SECOND write: TCP accepts the first write into a
// half-open connection without error, which would silently swallow one
// frame per dead connection. The peek bypasses the net poller (an expired
// read deadline would short-circuit before reporting the buffered EOF) and
// costs one syscall per batch on the happy path, and no allocation: the
// probe closure is the one setConn kept. Callers hold the writer role.
func (p *peerConn) connDead() bool {
	if p.raw == nil {
		return false
	}
	p.dead = false
	if err := p.raw.Control(p.peek); err != nil {
		return false
	}
	return p.dead
}

// peekDead reports whether the socket fd has a FIN or an error buffered.
func peekDead(fd uintptr) bool {
	var buf [1]byte
	n, _, errno := syscall.Recvfrom(int(fd), buf[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
	switch {
	case errno == nil && n == 0:
		return true // orderly FIN buffered
	case errno == syscall.EAGAIN || errno == syscall.EWOULDBLOCK:
		return false // nothing buffered: healthy
	default:
		return errno != nil // RST or another socket error
	}
}

// writeFrames hands frames to a peer in order, dialing or re-dialing as
// needed, with one liveness probe and one write for the lot. It returns
// how many of them, at the tail, it dropped because they could not reach
// the kernel (the peer is down or departed); a dropped frame is never
// queued again. An empty list only connects (Connect); it and every write
// while a Connect waits dial patiently. Callers hold the writer role.
func (m *Mesh) writeFrames(p *peerConn, frames []wireFrame) (lost int) {
	debug := m.debug
	rank := p.rank
	connect := len(frames) == 0
	var stop <-chan struct{}
	pending := p.connecting.Load()
	if pending != nil {
		stop = *pending
	}
	patient := connect || pending != nil
	departed := p.departed()
	if p.conn != nil && (departed || p.connDead()) {
		if debug && !departed {
			fmt.Fprintf(os.Stderr, "tcp[%d]: probe found dead conn to %d, redialing\n", m.self, rank)
		}
		m.setConn(p, nil)
	}
	if departed && !patient {
		return len(frames) // gone: nothing to dial until it connects again
	}
	for attempt := 0; attempt < 2; attempt++ {
		if p.conn == nil {
			if !patient && p.backedOff() {
				return len(frames) // recent dial failure: drop without redialing
			}
			window := m.dialWindow
			if p.connected && !patient {
				// Reachable before and gone without a goodbye: likely dead,
				// so the redial is short. A restarted peer is retried on
				// the next send, or at once when it connects here.
				window = 250 * time.Millisecond
			}
			seen := p.arrivals.Load()
			conn := m.dial(rank, p, window, patient, stop)
			if conn == nil {
				if debug {
					fmt.Fprintf(os.Stderr, "tcp[%d]: dial %d failed\n", m.self, rank)
				}
				p.downSeen.Store(seen)
				p.downUntil.Store(time.Now().Add(redialBackoff).UnixNano())
				return len(frames)
			}
			if !m.setConn(p, conn) {
				return len(frames) // Shutdown came first
			}
			p.connected = true
			p.downUntil.Store(0)
		}
		if connect {
			return 0
		}
		n, err := writeBatch(p.conn, &p.iov, frames)
		if err == nil {
			return 0
		}
		if debug {
			fmt.Fprintf(os.Stderr, "tcp[%d]: write to %d failed: %v\n", m.self, rank, err)
		}
		frames = frames[n:] // the rest go once more, on a fresh connection
		m.setConn(p, nil)
	}
	return len(frames)
}

// dial connects to a peer and completes the handshake, retrying within the
// window: the peer's listener may not be up yet during world start or rank
// re-execution. Between attempts the loop waits for the peer's arrival
// (its handshake reaching this mesh), for its departure, or for Shutdown;
// the 20 ms retry only covers a peer that comes up without connecting
// here. A departure ends the dial unless it is patient: a patient dial
// waits for the peer's next arrival, and gives up when stop closes.
func (m *Mesh) dial(rank int, p *peerConn, window time.Duration, patient bool, stop <-chan struct{}) net.Conn {
	deadline := time.Now().Add(window)
	for {
		if m.down.Load() || (p.departed() && !patient) {
			return nil
		}
		if !p.departed() {
			conn, err := net.DialTimeout("tcp", m.addrs[rank], window)
			if err == nil {
				if tc, ok := conn.(*net.TCPConn); ok {
					_ = tc.SetNoDelay(true)
				}
				if reply, err := m.handshakeReply(conn, hsTimeout); err == nil && reply == hsAccept {
					return conn
				}
				_ = conn.Close()
			}
		}
		if time.Now().After(deadline) {
			return nil
		}
		select {
		case <-p.wake:
		case <-m.closed:
		case <-stop:
			return nil
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// handshakeReply announces this mesh's rank on a fresh outbound connection
// and returns the acceptor's one-byte answer, or the error that kept it
// from arriving.
func (m *Mesh) handshakeReply(conn net.Conn, timeout time.Duration) (byte, error) {
	w := wire.NewWriter(hsLen)
	w.U32(hsMagic)
	w.U32(uint32(m.self))
	_ = conn.SetDeadline(time.Now().Add(timeout))
	defer func() { _ = conn.SetDeadline(time.Time{}) }()
	if _, err := conn.Write(w.Bytes()); err != nil {
		return 0, err
	}
	var reply [1]byte
	if _, err := io.ReadFull(conn, reply[:]); err != nil {
		return 0, err
	}
	return reply[0], nil
}

// peerGone confirms a loss: rank's inbound connection ended without a
// goodbye, which a crash does but so do a write error or a redial on the
// peer's side. One fresh dial plus the handshake tells them apart. A
// refused or reset connect means the process is gone, and so does a
// connection reset or closed before the handshake reply: a dying process's
// listener still completes connects from its backlog for about 100 µs
// after its connections close. A reply proves a live process, and a
// timeout proves nothing. A peer this mesh's rules cut off never confirms:
// the rule, not a death, may be what cut it.
func (m *Mesh) peerGone(rank int) bool {
	if m.down.Load() || m.cut.Severs(rank, m.self) {
		return false
	}
	conn, err := net.DialTimeout("tcp", m.addrs[rank], confirmTimeout)
	if err != nil {
		return errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET)
	}
	defer conn.Close()
	_, err = m.handshakeReply(conn, confirmTimeout)
	return connEnded(err) || errors.Is(err, syscall.EPIPE)
}

// connEnded reports whether a read error is the peer's end of the
// connection (FIN or RST) rather than a local close, a timeout or no error.
func connEnded(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, syscall.ECONNRESET)
}

// acceptLoop admits inbound connections from peers.
func (m *Mesh) acceptLoop() {
	defer m.wg.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return // listener closed (Shutdown)
		}
		m.mu.Lock()
		m.inbound[conn] = struct{}{}
		m.mu.Unlock()
		m.wg.Add(1)
		go m.readLoop(conn)
	}
}

// readLoop decodes frames from one inbound connection into the local port
// and, when loss reports are on, answers a confirmed crash of the peer with
// a PeerLost marker behind the connection's last frame. A confirmed loss
// marks the peer departed, as a goodbye does.
func (m *Mesh) readLoop(conn net.Conn) {
	defer m.wg.Done()
	peer, arrival, err := m.readFrames(conn)
	_ = conn.Close()
	m.mu.Lock()
	delete(m.inbound, conn)
	m.mu.Unlock()
	if peer >= 0 && connEnded(err) && m.lossReports.Load() && m.peerGone(peer) {
		p := m.peer(peer)
		p.byeAt.Store(arrival) // departed until its next arrival
		p.signal()
		m.cut.Deliver(transport.Message{From: peer, To: m.self, Class: transport.Control, Payload: transport.PeerLost{}})
	}
}

// readFrames runs one inbound connection until it ends. It returns the
// dialer's rank (-1 for a foreign dialer), its arrival number for this
// connection, and the read error that ended the connection; nil means it
// ended for a reason of its own (a goodbye, a foreign or corrupt stream).
// A goodbye marks the peer departed. Every other frame goes through the
// partition rules (transport.Cut.Deliver). Having delivered an MPI frame and
// drained its buffer, it polls the socket for the next frame before it
// parks (pollConn).
func (m *Mesh) readFrames(conn net.Conn) (int, uint64, error) {
	var pre [hsLen]byte
	_ = conn.SetReadDeadline(time.Now().Add(hsTimeout))
	if _, err := io.ReadFull(conn, pre[:]); err != nil {
		return -1, 0, nil
	}
	_ = conn.SetReadDeadline(time.Time{})
	pr := wire.NewReader(pre[:])
	magic, peer := pr.U32(), int(pr.U32())
	if magic != hsMagic || peer < 0 || peer >= m.n || peer == m.self {
		return -1, 0, nil // not a c3 peer; drop without replying
	}
	if _, err := conn.Write([]byte{hsAccept}); err != nil {
		return -1, 0, nil
	}
	// The dialer has arrived: it is no longer departed, its redial backoff
	// no longer applies, and a dial loop waiting on it retries now.
	p := m.peer(peer)
	arrival := p.arrivals.Add(1)
	p.signal()
	// One buffered reader per connection: a small frame costs one read,
	// not two, and frames queued behind each other share one. A frame a
	// local receiver expects (Expect) has its body read into the buffer
	// that receiver named. Every other body is its own allocation, because
	// decoded payloads alias it and a stored fragment must pin only its
	// own frame. Once the buffer is drained, bufio reads a remainder of at
	// least readBuffer straight into the body, so a bulk frame copies only
	// what was buffered and its last partial buffer.
	pc := newPollConn(conn, &m.polls)
	br := bufio.NewReaderSize(pc, readBuffer)
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return peer, arrival, err
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n < frameHeaderLen || n > maxFrame {
			return peer, arrival, nil // corrupt stream; drop the connection
		}
		if m.expect.Armed() > 0 {
			if landed, err := m.land(br, peer, int(n)); err != nil {
				return peer, arrival, err
			} else if landed {
				continue
			}
		}
		body := make([]byte, n)
		if err := m.readBody(br, peer, body); err != nil {
			return peer, arrival, err
		}
		r := wire.NewReader(body)
		gen := r.U64()
		from := int(r.U32())
		to := int(r.U32())
		class := transport.Class(r.U8())
		kind := r.U8()
		tctx := trace.Ctx{Span: r.U64(), Clock: r.U64()}
		if r.Err() != nil {
			return peer, arrival, nil
		}
		if to != m.self || from != peer {
			continue // misrouted frame
		}
		if kind == transport.WireKindGoodbye {
			p.byeAt.Store(arrival)
			p.signal()
			return peer, arrival, nil // orderly exit: no loss to report
		}
		payload, err := transport.DecodeWirePayload(kind, body[frameHeaderLen:])
		if err != nil {
			continue // unknown or corrupt payload: drop the frame, keep the conn
		}
		if !m.cut.Deliver(transport.Message{From: from, To: to, Class: class, Payload: payload, Trace: tctx, Gen: gen}) {
			m.noteDropped(1)
		}
		pc.armed = kind == transport.WireKindEnvelope && br.Buffered() == 0
	}
}

// pollBudget bounds the poll an inbound connection's reader runs before it
// parks in the netpoller (pollConn). A 64 B MPI round trip between two
// loopback meshes costs about 20 µs per hop when the reader parks, most of
// it the netpoller's wake-up; a reply that lands within the budget is read
// without one. It is a constant, not an option, like transport's
// pollRounds: it trades a reader's CPU against message gaps, which no
// caller knows better than the transport.
const pollBudget = 50 * time.Microsecond

// pollConn is an inbound connection as its reader's bufio.Reader sees it.
// A read the reader arms polls the socket before it parks: it retries a
// non-blocking read(2) through the socket's RawConn, yielding between
// tries, for up to pollBudget, and then falls back to the blocking Read,
// which parks in the netpoller. Any result but "no data yet" is returned
// as the blocking Read would return it. The reader arms a read only at a
// frame boundary with its buffer empty, right after an MPI frame: a rank
// that has just received a message is likely to see the next one within
// microseconds, a store's query replies and bulk bodies are not, and a
// poller holds a P that the process's parked readers need. It polls only
// while its previous armed wait ended within the budget, so a connection
// gone idle parks at once and, with more ranks than processors, a poller
// does not take the CPU of the rank it waits for.
type pollConn struct {
	net.Conn
	raw   syscall.RawConn       // nil: the connection cannot poll
	try   func(fd uintptr) bool // one non-blocking read into buf, made once
	buf   []byte
	n     int
	errno error
	armed bool // the next Read waits at a frame boundary after an MPI frame
	quick bool // the last armed wait ended within pollBudget
	polls *atomic.Uint64
}

func newPollConn(conn net.Conn, polls *atomic.Uint64) *pollConn {
	c := &pollConn{Conn: conn, quick: true, polls: polls}
	// With one P a poll never overlaps the goroutine that answers, and it
	// keeps every parked reader of the process from the netpoller.
	if sc, ok := conn.(syscall.Conn); ok && runtime.GOMAXPROCS(0) > 1 {
		c.raw, _ = sc.SyscallConn()
	}
	c.try = func(fd uintptr) bool {
		c.n, c.errno = syscall.Read(int(fd), c.buf)
		return true
	}
	return c
}

// Read implements io.Reader.
func (c *pollConn) Read(b []byte) (int, error) {
	if !c.armed {
		return c.Conn.Read(b)
	}
	c.armed = false
	start := time.Now()
	if c.quick && c.raw != nil {
		c.polls.Add(1)
		c.buf = b
		for time.Since(start) < pollBudget && c.raw.Read(c.try) == nil {
			switch {
			case c.n > 0:
				return c.n, nil
			case c.errno == syscall.EAGAIN || c.errno == syscall.EINTR:
				runtime.Gosched()
			case c.errno == nil:
				return 0, io.EOF
			default:
				return 0, os.NewSyscallError("read", c.errno)
			}
		}
	}
	n, err := c.Conn.Read(b)
	c.quick = time.Since(start) <= pollBudget
	return n, err
}

// land reads the frame of n bytes that br holds next, from peer, into
// the expectation it matches, if any, and delivers it. It reports whether
// it did; otherwise it has consumed nothing. A partitioned pair's frames
// match nothing, so the partition rules take them on the normal path.
func (m *Mesh) land(br *bufio.Reader, peer, n int) (bool, error) {
	pre, err := br.Peek(min(n, frameHeaderLen+transport.MaxExpectHead))
	if err != nil {
		return false, err
	}
	r := wire.NewReader(pre)
	gen := r.U64()
	from := int(r.U32())
	to := int(r.U32())
	class := transport.Class(r.U8())
	kind := r.U8()
	tctx := trace.Ctx{Span: r.U64(), Clock: r.U64()}
	if to != m.self || from != peer || m.cut.Severs(from, m.self) {
		return false, nil
	}
	e := m.expect.Claim(from, gen, kind, n-frameHeaderLen, pre[frameHeaderLen:])
	if e == nil {
		return false, nil
	}
	head, body := e.Reply.WireParts()
	if _, err := br.Discard(frameHeaderLen + len(head)); err != nil {
		return false, err
	}
	if err := m.readBody(br, peer, body); err != nil {
		return false, err // claimed and never landed: its receiver gives the buffer up
	}
	e.Land()
	if !m.cut.Deliver(transport.Message{From: from, To: m.self, Class: class, Payload: e.Reply, Trace: tctx, Gen: gen}) {
		m.noteDropped(1)
	}
	return true, nil
}

// progressChunk is how much of a long frame body is read per progress
// report.
const progressChunk = 64 << 10

// readBody reads a frame body from peer. Where a demux asked for loss
// reports (they are on and the port forwards to it), each progressChunk of
// a longer body is reported as contact from peer (transport.PeerProgress),
// so a peer shipping a long frame is never silent. A peer the partition
// rules cut off makes no contact: its body is dropped or held once read.
func (m *Mesh) readBody(br *bufio.Reader, peer int, body []byte) error {
	if len(body) > progressChunk && m.lossReports.Load() && m.port.Forwarding() && !m.cut.Severs(peer, m.self) {
		for len(body) > progressChunk {
			if _, err := io.ReadFull(br, body[:progressChunk]); err != nil {
				return err
			}
			body = body[progressChunk:]
			m.port.Push(transport.Message{From: peer, To: m.self, Class: transport.Control, Payload: transport.PeerProgress{}})
		}
	}
	_, err := io.ReadFull(br, body)
	return err
}

var _ transport.Interconnect = (*Mesh)(nil)
var _ transport.Lander = (*Mesh)(nil)

// --- Local port ---

// port is the local rank's receive queue: a transport.Inbox whose receives
// are traced (a demux that takes its messages through Forward traces them
// itself). It parks at once on an empty queue: its producers are reader
// goroutines, and a receiver yielding in a loop keeps its P from reaching
// the netpoller that wakes them. The poll sits in the readers instead,
// which poll their own sockets after an MPI frame (pollConn).
type port struct{ *transport.Inbox }

// Recv implements transport.Port.
func (p port) Recv() (transport.Message, error) {
	msg, err := p.Inbox.Recv()
	if err == nil {
		transport.TraceRecv(p.Rank(), msg)
	}
	return msg, err
}

// TryRecv implements transport.Port.
func (p port) TryRecv() (transport.Message, bool, error) {
	msg, ok, err := p.Inbox.TryRecv()
	if ok {
		transport.TraceRecv(p.Rank(), msg)
	}
	return msg, ok, err
}
