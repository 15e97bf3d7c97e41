// Package tcp is the wire-level transport backend: a transport.Interconnect
// whose ranks are separate OS processes connected by TCP sockets.
//
// Each process owns one Mesh hosting exactly one local rank. The mesh
// listens on its own address, dials peers lazily on first send, and frames
// every message with a length prefix (internal/wire encoding). Delivery
// keeps the per-(source, destination) FIFO guarantee the MPI layer needs,
// because each ordered pair maps to one TCP connection and frames are
// written atomically under a per-connection lock.
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
// Short-lived meshes (one per MPI attempt) carry a generation number in
// every frame; frames from another generation are discarded, so a stale
// in-flight message from a dead attempt can never leak into its
// successor. Connection establishment performs a generation handshake so
// a dialer that reaches the previous generation's still-bound listener is
// refused and retries, rather than having its first frames silently
// discarded mid-transition.
package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
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

// frameHeaderLen is gen(8) + from(4) + to(4) + class(1) + kind(1) +
// trace span(8) + trace lamport clock(8). The last 16 bytes are the
// causal tracing context (trace.Ctx): the receive path merges the
// sender's Lamport clock and records a recv event sharing the edge's
// span id, which is what lets cmd/c3trace stitch per-process flight
// recordings into one cross-rank happens-before timeline. All ranks of
// a world run the same build, so the header change needs no
// negotiation (cross-generation frames are already filtered).
const frameHeaderLen = 34

// Connection-establishment handshake. Every attempt's mesh binds the same
// per-rank address and relies on the generation tag to keep attempts apart,
// so during an attempt transition a dialer can reach a listener that is
// still serving the PREVIOUS generation. Without a handshake the first
// frames written there are silently discarded by the receiver's generation
// filter — fatal for fire-and-forget collective traffic (a lost bcast frame
// hangs the new attempt). The dialer therefore announces its generation
// up front and the acceptor acks only on an exact match; a refused dial is
// retried within the dial window until the peer's same-generation listener
// takes over the address.
const (
	hsMagic  = 0x43334853 // "C3HS"
	hsAccept = 0x06       // acceptor runs the same generation
	hsRefuse = 0x15       // generation mismatch: retry after the peer rebinds
	// hsTimeout bounds each side's wait for the other's handshake bytes so
	// a wedged or foreign peer cannot pin the connection forever.
	hsTimeout = 2 * time.Second
)

// Option configures a Mesh.
type Option func(*Mesh)

// WithGeneration tags every frame with gen; incoming frames from another
// generation are dropped. Per-attempt meshes use the attempt number so a
// restarted world never observes its predecessor's in-flight traffic.
func WithGeneration(gen uint64) Option {
	return func(m *Mesh) { m.gen = gen }
}

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
	gen        uint64
	dialWindow time.Duration

	ln    net.Listener
	port  *port
	debug bool // C3_TCP_DEBUG: trace dials, probes and write failures

	mu      sync.Mutex
	peers   map[int]*peerConn
	inbound map[net.Conn]struct{}
	down    atomic.Bool
	// lossReports turns on PeerLost markers (ReportLosses).
	lossReports atomic.Bool

	// Partition fault model: directed (from, to) pairs currently severed.
	// In drop mode outbound frames whose pair matches vanish before they
	// reach the kernel and inbound frames are filtered too, so an
	// asymmetric rule set holds even against frames already in flight. In
	// hold mode matched outbound frames are buffered and delivered in
	// order at the next Heal — modeling a partition shorter than TCP's
	// retransmission patience, where established connections recover and
	// no data is lost.
	partMu      sync.Mutex
	partBlocked map[[2]int]bool
	partHold    bool
	partHeld    []heldFrame

	statMu sync.Mutex
	stats  transport.Stats

	wg sync.WaitGroup
}

// heldFrame is one outbound frame buffered by a hold-mode partition rule.
type heldFrame struct {
	to    int
	frame wireFrame
}

// wireFrame is one encoded message. A small message is one buffer — length
// prefix, frame header, body — handed to the kernel with one write. A bulk
// body (checkpoint fragments) is not copied behind the header: it stays
// where the payload encoded it and goes out with head in one writev.
type wireFrame struct {
	head []byte
	body []byte // nil when head carries the body
}

// bulkBody is the body size from which a frame is sent as two segments.
// Go's writev path costs a frame about a microsecond more than a plain
// write (64 B ping-pong over loopback: +11 %, slower in 8 of 10 paired
// runs), which a copy of a few KiB undercuts and a copy of megabytes does
// not (8 MiB rs 4+2 commit: 8 % faster without it).
const bulkBody = 4 << 10

// writeTo hands the frame to the kernel.
func (f wireFrame) writeTo(c net.Conn) error {
	if f.body == nil {
		_, err := c.Write(f.head)
		return err
	}
	bufs := net.Buffers{f.head, f.body}
	_, err := bufs.WriteTo(c)
	return err
}

// peerConn is the outbound connection to one peer.
type peerConn struct {
	mu        sync.Mutex
	conn      net.Conn
	connected bool      // ever connected: re-dials use the short window
	downUntil time.Time // failed-dial backoff: drop sends without redialing
}

// redialBackoff is how long sends to a peer drop immediately after a
// failed (re)dial. Without it, every queued message toward a dead peer
// pays a full dial window while holding the peer's connection lock,
// serializing into multi-second stalls for everything else addressed to
// that rank (the failure detector's heartbeat queue, recovery queries).
// With it, the first send after a death pays one dial; the rest fail fast
// until the next probe window, which also bounds how long a restarted
// peer waits to be re-discovered.
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
		port:       newPort(self),
		debug:      os.Getenv("C3_TCP_DEBUG") != "",
	}
	for _, o := range opts {
		o(m)
	}
	ln, err := net.Listen("tcp", addrs[self])
	if err != nil {
		return nil, fmt.Errorf("tcp: rank %d listen %s: %w", self, addrs[self], err)
	}
	m.ln = ln
	m.wg.Add(1)
	go m.acceptLoop()
	return m, nil
}

// Addr returns the mesh's bound listen address.
func (m *Mesh) Addr() string { return m.ln.Addr().String() }

// SetPartition installs directed partition rules, replacing any active
// rule set. With hold=false a matched (from, to) frame is dropped on the
// send side before reaching the kernel and filtered on the receive side
// (blackhole: a partition outlasting TCP's patience). With hold=true
// matched outbound frames are buffered instead and delivered in their
// original order at the next Heal (a short partition: the kernel's
// retransmissions win). The outbound connection of a blocked pair is
// closed at the next send, so no half-open socket lingers behind the
// rule. Frames already buffered by a previous hold rule set stay held.
func (m *Mesh) SetPartition(block [][2]int, hold bool) {
	blocked := make(map[[2]int]bool, len(block))
	for _, p := range block {
		blocked[p] = true
	}
	m.partMu.Lock()
	m.partBlocked = blocked
	m.partHold = hold
	m.partMu.Unlock()
}

// Heal clears the partition rules and flushes frames buffered by a hold
// rule set, in capture order, on a background drainer (the first write to
// a severed pair may pay a re-dial). Drop-mode pairs simply re-dial
// lazily on their next send — their frames are gone.
func (m *Mesh) Heal() {
	m.partMu.Lock()
	m.partBlocked = nil
	held := m.partHeld
	m.partHeld = nil
	m.partMu.Unlock()
	if len(held) == 0 || m.down.Load() {
		return
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		for _, h := range held {
			if m.down.Load() {
				return
			}
			if !m.write(h.to, h.frame) {
				m.noteDropped()
			}
		}
	}()
}

// dropRule reports whether the directed pair is currently severed.
func (m *Mesh) dropRule(from, to int) bool {
	m.partMu.Lock()
	defer m.partMu.Unlock()
	return m.partBlocked[[2]int{from, to}]
}

// dropInbound reports whether an inbound frame on the pair should be
// filtered: only drop-mode rules apply (hold mode promises delivery, so
// frames already in flight pass).
func (m *Mesh) dropInbound(from, to int) bool {
	m.partMu.Lock()
	defer m.partMu.Unlock()
	return m.partBlocked[[2]int{from, to}] && !m.partHold
}

// holdIfActive buffers a frame if a hold-mode rule currently covers the
// pair, reporting whether it did.
func (m *Mesh) holdIfActive(to int, frame wireFrame) bool {
	m.partMu.Lock()
	defer m.partMu.Unlock()
	if !m.partBlocked[[2]int{m.self, to}] || !m.partHold {
		return false
	}
	m.partHeld = append(m.partHeld, heldFrame{to: to, frame: frame})
	return true
}

// openOutbound counts established outbound peer connections (leak checks).
func (m *Mesh) openOutbound() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	open := 0
	for _, p := range m.peers {
		p.mu.Lock()
		if p.conn != nil {
			open++
		}
		p.mu.Unlock()
	}
	return open
}

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
	return deadPort{rank: rank}
}

// Kill implements transport.Interconnect: the local rank's port is killed;
// killing a remote rank is the job scheduler's business (a real SIGKILL),
// so it is a no-op here.
func (m *Mesh) Kill(rank int) {
	if rank == m.self {
		m.port.kill()
	}
}

// ReportLosses implements transport.LossReporter: from now on, an inbound
// connection that ends without a goodbye and whose peer a fresh dial
// confirms gone queues a transport.PeerLost marker behind its last frame.
func (m *Mesh) ReportLosses() { m.lossReports.Store(true) }

// Shutdown implements transport.Interconnect: close the listener and every
// connection and kill the local port, unblocking all receives. Each
// outbound connection first carries a goodbye frame, so the peer can tell
// this orderly exit from a crash.
func (m *Mesh) Shutdown() {
	if m.down.Swap(true) {
		return
	}
	_ = m.ln.Close()
	outbound := make(map[int]net.Conn)
	m.mu.Lock()
	for rank, p := range m.peers {
		p.mu.Lock()
		if p.conn != nil {
			outbound[rank] = p.conn
			p.conn = nil
		}
		p.mu.Unlock()
	}
	for c := range m.inbound {
		_ = c.Close()
	}
	m.mu.Unlock()
	for rank, c := range outbound {
		_ = c.SetWriteDeadline(time.Now().Add(goodbyeTimeout))
		_, _ = c.Write(m.goodbyeFrame(rank))
		_ = c.Close()
	}
	m.port.kill()
}

// Close shuts the mesh down and waits for its background goroutines.
func (m *Mesh) Close() {
	m.Shutdown()
	m.wg.Wait()
}

// Send implements transport.Interconnect.
func (m *Mesh) Send(msg transport.Message) error {
	if m.down.Load() {
		return transport.ErrDown
	}
	if msg.To < 0 || msg.To >= m.n {
		return fmt.Errorf("tcp: destination %d out of range [0,%d)", msg.To, m.n)
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
		if !m.port.push(msg) {
			m.noteDropped()
		}
		return nil
	}
	if m.dropRule(m.self, msg.To) {
		// Partitioned pair: in hold mode the frame is buffered for the next
		// Heal; in drop mode it vanishes and the sender never errors (the
		// in-memory Network's semantics for a severed pair). write()
		// re-checks the rule after any dial, so a rule installed while a
		// send is mid-flight still cannot leak a frame or a connection.
		frame, err := encodeFrame(m.gen, msg)
		if err != nil {
			return err
		}
		if !m.holdIfActive(msg.To, frame) {
			m.noteDropped()
		}
		return nil
	}
	frame, err := encodeFrame(m.gen, msg)
	if err != nil {
		return err
	}
	if !m.write(msg.To, frame) {
		m.noteDropped()
	}
	return nil
}

func (m *Mesh) noteDropped() {
	m.statMu.Lock()
	m.stats.MessagesDropped++
	m.statMu.Unlock()
}

// encodeFrame serializes one message into a length-prefixed frame.
func encodeFrame(gen uint64, msg transport.Message) (wireFrame, error) {
	wp, ok := msg.Payload.(transport.WirePayload)
	if !ok {
		return wireFrame{}, fmt.Errorf("tcp: payload %T cannot cross a wire (no WirePayload)", msg.Payload)
	}
	body := wp.MarshalWire()
	if len(body) > maxFrame-frameHeaderLen {
		// The receiver treats an oversized length prefix as stream
		// corruption and drops the connection (losing queued frames behind
		// it); refuse on the send side instead.
		return wireFrame{}, fmt.Errorf("tcp: %d-byte payload exceeds the %d-byte frame limit", len(body), maxFrame)
	}
	inline := len(body)
	if inline >= bulkBody {
		inline = 0
	}
	head := frameHead(4+frameHeaderLen+inline, len(body), gen, msg, wp.WireKind())
	if len(body) >= bulkBody {
		return wireFrame{head: head, body: body}, nil
	}
	return wireFrame{head: append(head, body...)}, nil
}

// frameHead writes a frame's length prefix and header for a body of
// bodyLen bytes into a buffer with room for capacity bytes.
func frameHead(capacity, bodyLen int, gen uint64, msg transport.Message, kind uint8) []byte {
	w := wire.NewWriter(capacity)
	w.U32(uint32(frameHeaderLen + bodyLen))
	w.U64(gen)
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
	return frameHead(4+frameHeaderLen, 0, m.gen, msg, transport.WireKindGoodbye)
}

// peer returns (creating if needed) the connection slot for a rank.
func (m *Mesh) peer(rank int) *peerConn {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peers[rank]
	if p == nil {
		p = &peerConn{}
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
// costs one syscall on the happy path.
func connDead(c net.Conn) bool {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return false
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	dead := false
	if err := raw.Control(func(fd uintptr) {
		var buf [1]byte
		n, _, errno := syscall.Recvfrom(int(fd), buf[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		switch {
		case errno == nil && n == 0:
			dead = true // orderly FIN buffered
		case errno == syscall.EAGAIN || errno == syscall.EWOULDBLOCK:
			// nothing buffered: healthy
		case errno != nil:
			dead = true // RST or another socket error
		}
	}); err != nil {
		return false
	}
	return dead
}

// write delivers one frame to a peer, dialing or re-dialing as needed. It
// reports false when the frame could not be handed to the kernel (the peer
// is down); the message is then dropped, never queued.
func (m *Mesh) write(rank int, frame wireFrame) bool {
	debug := m.debug
	p := m.peer(rank)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != nil && connDead(p.conn) {
		if debug {
			fmt.Fprintf(os.Stderr, "tcp[%d]: probe found dead conn to %d, redialing\n", m.self, rank)
		}
		_ = p.conn.Close()
		p.conn = nil
	}
	for attempt := 0; attempt < 2; attempt++ {
		if p.conn == nil {
			if time.Now().Before(p.downUntil) {
				return false // recent dial failure: drop without redialing
			}
			window := m.dialWindow
			if p.connected {
				// The peer was reachable before and vanished — likely dead.
				// Don't stall the sender; a restarted peer is retried on the
				// next send.
				window = 250 * time.Millisecond
			}
			// Dialing under p.mu is deliberate post-PR4: the lock is
			// per-peer, so a dead peer stalls only its own frames, and the
			// redial window after a loss is bounded to 250ms (the 30s-stall
			// bug was the unbounded window, not the lock itself).
			conn := m.dial(rank, window) //c3lint:allow lockblock per-peer lock; redial window bounded to 250ms
			if conn == nil {
				if debug {
					fmt.Fprintf(os.Stderr, "tcp[%d]: dial %d failed\n", m.self, rank)
				}
				p.downUntil = time.Now().Add(redialBackoff)
				return false
			}
			p.conn = conn
			p.connected = true
			p.downUntil = time.Time{}
		}
		if m.dropRule(m.self, rank) {
			// A partition rule landed between Send's fast-path check and the
			// (re)dial above: the frame must not cross, and the freshly
			// dialed probe connection must not linger half-open behind the
			// rule — close it here instead of leaking it in p.conn. Under a
			// hold rule the frame is re-queued for the Heal flush.
			_ = p.conn.Close()
			p.conn = nil
			return m.holdIfActive(rank, frame)
		}
		// Frames must hit the kernel atomically per connection to keep the
		// per-(src,dst) FIFO guarantee; p.mu is that per-peer write lock.
		if err := frame.writeTo(p.conn); err == nil { //c3lint:allow lockblock per-peer FIFO framing requires the write under the lock
			return true
		} else if debug {
			fmt.Fprintf(os.Stderr, "tcp[%d]: write to %d failed: %v\n", m.self, rank, err)
		}
		_ = p.conn.Close()
		p.conn = nil
	}
	return false
}

// dial connects to a peer and completes the generation handshake, retrying
// within the window. Retries cover both startup ordering (the peer's
// listener may not be up yet during world start or rank re-execution) and
// attempt transitions (the address is temporarily owned by the previous
// generation's listener, which refuses the handshake until the peer's new
// mesh rebinds).
func (m *Mesh) dial(rank int, window time.Duration) net.Conn {
	deadline := time.Now().Add(window)
	for {
		if m.down.Load() {
			return nil
		}
		conn, err := net.DialTimeout("tcp", m.addrs[rank], window)
		if err == nil {
			if tc, ok := conn.(*net.TCPConn); ok {
				_ = tc.SetNoDelay(true)
			}
			if m.handshake(conn) {
				return conn
			}
			_ = conn.Close()
		}
		if time.Now().After(deadline) {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// handshake announces this mesh's generation on a fresh outbound connection
// and waits for the acceptor's verdict. False means the far side is not (or
// not yet) running the same generation.
func (m *Mesh) handshake(conn net.Conn) bool {
	reply, err := m.handshakeReply(conn, hsTimeout)
	return err == nil && reply == hsAccept
}

// handshakeReply sends the generation announcement and returns the
// acceptor's one-byte verdict, or the error that kept it from arriving.
func (m *Mesh) handshakeReply(conn net.Conn, timeout time.Duration) (byte, error) {
	w := wire.NewWriter(12)
	w.U32(hsMagic)
	w.U64(m.gen)
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
// goodbye, which a crash does but so do a write error, a partition rule or
// a redial on the peer's side. One fresh dial plus the generation
// handshake tells them apart. A refused or reset connect means the process
// is gone, and so does a connection reset or closed before the handshake
// reply: a dying process's listener still completes connects from its
// backlog for about 100 µs after its connections close. A reply, accept or
// refuse, proves a live process, and a timeout proves nothing. A pair
// covered by a partition rule never confirms: the rule, not a death, may
// be what cut it.
func (m *Mesh) peerGone(rank int) bool {
	if m.down.Load() || m.dropRule(m.self, rank) || m.dropRule(rank, m.self) {
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
// a PeerLost marker behind the connection's last frame.
func (m *Mesh) readLoop(conn net.Conn) {
	defer m.wg.Done()
	peer, err := m.readFrames(conn)
	_ = conn.Close()
	m.mu.Lock()
	delete(m.inbound, conn)
	m.mu.Unlock()
	if peer >= 0 && connEnded(err) && m.lossReports.Load() && m.peerGone(peer) {
		m.port.push(transport.Message{From: peer, To: m.self, Class: transport.Control, Payload: transport.PeerLost{}})
	}
}

// readFrames runs one inbound connection until it ends. It returns the rank
// the connection's frames came from (-1 before the first) and the read
// error that ended it; nil means the connection ended for a reason of its
// own (a goodbye, a foreign or corrupt stream, a refused generation).
func (m *Mesh) readFrames(conn net.Conn) (int, error) {
	peer := -1
	// Generation handshake: refuse dialers from another generation so they
	// retry after this address changes hands, instead of writing frames the
	// generation filter below would silently discard.
	var pre [12]byte
	_ = conn.SetReadDeadline(time.Now().Add(hsTimeout))
	if _, err := io.ReadFull(conn, pre[:]); err != nil {
		return peer, nil
	}
	_ = conn.SetReadDeadline(time.Time{})
	pr := wire.NewReader(pre[:])
	if magic, gen := pr.U32(), pr.U64(); magic != hsMagic {
		return peer, nil // not a c3 peer; drop without replying
	} else if gen != m.gen {
		_, _ = conn.Write([]byte{hsRefuse})
		return peer, nil
	}
	if _, err := conn.Write([]byte{hsAccept}); err != nil {
		return peer, nil
	}
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return peer, err
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n < frameHeaderLen || n > maxFrame {
			return peer, nil // corrupt stream; drop the connection
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(conn, body); err != nil {
			return peer, err
		}
		r := wire.NewReader(body)
		gen := r.U64()
		from := int(r.U32())
		to := int(r.U32())
		class := transport.Class(r.U8())
		kind := r.U8()
		tctx := trace.Ctx{Span: r.U64(), Clock: r.U64()}
		if r.Err() != nil {
			return peer, nil
		}
		if gen != m.gen || to != m.self || from < 0 || from >= m.n {
			continue // stale generation or misrouted frame
		}
		peer = from
		if kind == transport.WireKindGoodbye {
			return peer, nil // orderly exit: no loss to report
		}
		if m.dropInbound(from, m.self) {
			continue // blackholed pair: filter frames already in flight
		}
		payload, err := transport.DecodeWirePayload(kind, body[frameHeaderLen:])
		if err != nil {
			continue // unknown or corrupt payload: drop the frame, keep the conn
		}
		if !m.port.push(transport.Message{From: from, To: to, Class: class, Payload: payload, Trace: tctx}) {
			m.noteDropped()
		}
	}
}

var _ transport.Interconnect = (*Mesh)(nil)

// --- Local port ---

// port is the local rank's receive queue (the socket-backed analogue of the
// in-memory Endpoint).
type port struct {
	rank int

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []transport.Message
	killed bool
}

func newPort(rank int) *port {
	p := &port{rank: rank}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Rank implements transport.Port.
func (p *port) Rank() int { return p.rank }

func (p *port) push(msg transport.Message) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.killed {
		return false
	}
	p.queue = append(p.queue, msg)
	p.cond.Signal()
	return true
}

func (p *port) kill() {
	p.mu.Lock()
	p.killed = true
	p.queue = nil
	p.mu.Unlock()
	p.cond.Broadcast()
}

// traceRecv records the message-edge delivery on the local recorder. A
// loss report is not an edge: no send matches it.
func traceRecv(rank int, msg transport.Message) {
	if _, lost := msg.Payload.(transport.PeerLost); lost {
		return
	}
	size := 0
	if s, ok := msg.Payload.(transport.Sizer); ok {
		size = s.TransportSize()
	}
	trace.Default().Recv(int32(rank), int32(msg.From), msg.Trace, uint64(size))
}

// Recv implements transport.Port.
func (p *port) Recv() (transport.Message, error) {
	p.mu.Lock()
	for len(p.queue) == 0 {
		if p.killed {
			p.mu.Unlock()
			return transport.Message{}, transport.ErrDown
		}
		p.cond.Wait()
	}
	msg := p.queue[0]
	p.queue = p.queue[1:]
	p.mu.Unlock()
	traceRecv(p.rank, msg)
	return msg, nil
}

// TryRecv implements transport.Port.
func (p *port) TryRecv() (transport.Message, bool, error) {
	p.mu.Lock()
	if p.killed {
		p.mu.Unlock()
		return transport.Message{}, false, transport.ErrDown
	}
	if len(p.queue) == 0 {
		p.mu.Unlock()
		return transport.Message{}, false, nil
	}
	msg := p.queue[0]
	p.queue = p.queue[1:]
	p.mu.Unlock()
	traceRecv(p.rank, msg)
	return msg, true, nil
}

// Pending implements transport.Port.
func (p *port) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// Killed implements transport.Port.
func (p *port) Killed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.killed
}

// deadPort stands in for ranks hosted by other processes: their receive
// sides do not exist here.
type deadPort struct{ rank int }

func (d deadPort) Rank() int { return d.rank }
func (d deadPort) Recv() (transport.Message, error) {
	return transport.Message{}, transport.ErrDown
}
func (d deadPort) TryRecv() (transport.Message, bool, error) {
	return transport.Message{}, false, transport.ErrDown
}
func (d deadPort) Pending() int { return 0 }
func (d deadPort) Killed() bool { return true }
