package transport

// Demux splits one physical interconnect into kind-keyed logical planes, so
// independent subsystems can share a single long-lived mesh. The
// multi-process runtime routes the replication plane (stable.DistStore),
// the failure-detection plane (internal/detect) and every attempt's MPI
// world over one TCP mesh this way: the local port forwards each message,
// on the goroutine that received it, to the plane registered for its
// payload's WireKind.
//
// A plane is the generation-0 view of its kind. A kind can also be keyed
// by generation (Generations): each attempt's MPI world is then a view
// that sees only its own generation's frames, so a node keeps one set of
// connections across every attempt it runs.
//
// The demux also exposes observer hooks on both directions. The failure
// detector uses them to piggyback liveness on existing traffic: every
// message received from a peer counts as a heartbeat from it, and every
// message sent toward a peer lets the emitter skip the next explicit ping.
// A third hook carries loss reports: a backend that can tell a dead peer
// process from its connection's end (LossReporter) queues a PeerLost
// marker behind that connection's last frame, and the lost observer fires
// only after the recv observer has seen every frame before it, and the
// recv observer also sees its progress reports on long frames.

import (
	"sync"
)

// PeerLost is the payload of a loss report: the in-band marker a
// LossReporter queues on its local port behind the last frame of a
// connection whose peer process is gone. Message.From names the peer.
type PeerLost struct{}

// PeerProgress is the payload of a progress report, which a LossReporter
// queues for each 64 KiB of a long frame body from Message.From. It goes
// to the recv observer alone: no trace event, no plane.
type PeerProgress struct{}

// LossReporter is implemented by interconnects that can confirm a peer
// process's death from its connection (the TCP mesh). Reports, of losses
// and of progress, are off until ReportLosses is called: a consumer that
// does not read PeerLost markers (the MPI layer) never receives one.
type LossReporter interface {
	ReportLosses()
}

// Demux fans one Interconnect's local receive stream out to per-kind
// planes. Create planes with Plane, install observers, then call Start.
type Demux struct {
	inner Interconnect
	self  int

	mu     sync.Mutex
	kinds  map[uint8]*Generations
	onRecv func(from int)
	onSend func(to int)
	onLost func(from int)
}

// NewDemux wraps the interconnect whose local rank is self.
func NewDemux(inner Interconnect, self int) *Demux {
	return &Demux{inner: inner, self: self, kinds: make(map[uint8]*Generations)}
}

// Plane returns the logical interconnect carrying payloads of the given
// wire kind. All planes must be created before Start; messages arriving for
// a kind with no plane are dropped.
func (d *Demux) Plane(kind uint8) Interconnect {
	return d.Generations(kind, d.inner.Size()).view
}

// Generations returns the generation-keyed class of the given wire kind,
// whose views span the first size ranks of the mesh; call it before Start.
// Until the first Open, its view is the kind's plane (generation 0).
func (d *Demux) Generations(kind uint8, size int) *Generations {
	d.mu.Lock()
	defer d.mu.Unlock()
	g := d.kinds[kind]
	if g == nil {
		g = &Generations{d: d, size: size}
		g.view = &view{d: d, port: NewInbox(d.self), size: size}
		d.kinds[kind] = g
	}
	return g
}

// SetObservers installs the liveness hooks: recv fires for every message
// the demux routes (any plane), send for every outbound message, and lost
// for every loss report, after recv has fired for each frame the lost
// connection delivered. Install before Start; any may be nil. A non-nil
// lost turns the backend's loss reports on (LossReporter).
func (d *Demux) SetObservers(recv func(from int), send func(to int), lost func(from int)) {
	d.mu.Lock()
	d.onRecv, d.onSend, d.onLost = recv, send, lost
	d.mu.Unlock()
}

// Inject delivers a message straight into the plane registered for kind,
// as if it had arrived over the shared mesh: the receive observer fires
// (liveness evidence credited to msg.From — for a relayed frame that is
// the original sender, not the forwarding hop) and the plane's receivers
// wake. The relay router uses it to hand unwrapped payloads to their inner
// plane. It reports whether a plane accepted the message.
func (d *Demux) Inject(kind uint8, msg Message) bool {
	d.mu.Lock()
	recv, g := d.onRecv, d.kinds[kind]
	d.mu.Unlock()
	if recv != nil {
		recv(msg.From)
	}
	return g != nil && g.push(msg)
}

// Start begins routing: the local port (an in-memory Endpoint or the TCP
// mesh's) forwards every message, queued or arriving, to the demux
// (Inbox.Forward). It must be called once, after every Plane and
// SetObservers call.
func (d *Demux) Start() {
	d.mu.Lock()
	lost := d.onLost
	d.mu.Unlock()
	if lr, ok := d.inner.(LossReporter); ok && lost != nil {
		lr.ReportLosses()
	}
	d.inner.Endpoint(d.self).(interface{ Forward(func(Message)) }).Forward(d.route)
}

// Close shuts the underlying interconnect down, and every plane with it.
func (d *Demux) Close() {
	d.inner.Shutdown()
	d.mu.Lock()
	for _, g := range d.kinds {
		g.close()
	}
	d.mu.Unlock()
}

// route records one message's receive edge and hands it to its plane,
// after the recv observer, or a loss report to the lost observer. A
// progress report, which no plane claims, only reaches the recv observer.
func (d *Demux) route(msg Message) {
	if _, ok := msg.Payload.(PeerLost); ok {
		d.mu.Lock()
		lost := d.onLost
		d.mu.Unlock()
		if lost != nil {
			lost(msg.From)
		}
		return
	}
	TraceRecv(d.self, msg)
	kind := WireKindGoodbye // claimed by no plane: observed, then dropped
	if wp, ok := msg.Payload.(WirePayload); ok {
		kind = wp.WireKind()
	}
	d.Inject(kind, msg)
}

// Generations is one wire kind's traffic split by the generation each
// message carries (Message.Gen), with one view per generation, opened in
// increasing order. A message older than the current view is dropped; a
// newer one is held until its view opens, so a peer that entered the next
// attempt first loses nothing. Arrival order, and so FIFO order per pair,
// is kept within each generation.
type Generations struct {
	d    *Demux
	size int

	mu   sync.Mutex
	view *view     // the current generation's view
	held []Message // messages of newer generations, in arrival order
}

// Open makes gen the current generation and returns its view: size ranks,
// sends stamped with gen, receives of gen's messages only, the held ones
// first. It shuts the previous view down and drops what was held for older
// generations. A gen not newer than the current one gets a dead view.
func (g *Generations) Open(gen uint64) Interconnect {
	v := &view{d: g.d, port: NewInbox(g.d.self), gen: gen, size: g.size}
	g.mu.Lock()
	defer g.mu.Unlock()
	if gen <= g.view.gen {
		v.port.Kill()
		return v
	}
	g.view.port.Kill()
	g.view = v
	keep := g.held[:0]
	for _, msg := range g.held {
		switch {
		case msg.Gen == gen:
			v.port.Push(msg)
		case msg.Gen > gen:
			keep = append(keep, msg)
		}
	}
	clear(g.held[len(keep):])
	g.held = keep
	return v
}

func (g *Generations) push(msg Message) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case msg.Gen < g.view.gen:
		return false
	case msg.Gen > g.view.gen:
		g.held = append(g.held, msg)
		return true
	}
	return g.view.port.Push(msg)
}

// close ends the class for good (Demux.Close): the last generation opens
// shut down, so every message is dropped and every later view is dead.
func (g *Generations) close() { g.Open(^uint64(0)).Shutdown() }

// view is one generation of one kind: sends pass through to the shared
// mesh stamped with the generation, receives come from the view's own port
// fed by the demux. Shutdown fails the view's receives and sends with
// ErrDown and leaves the shared mesh up for its siblings.
type view struct {
	d    *Demux
	port *Inbox
	gen  uint64
	size int
}

func (v *view) Size() int { return v.size }

func (v *view) Send(msg Message) error {
	if v.port.ready.Load() < 0 {
		return ErrDown // shut down, or retired by a newer generation
	}
	msg.Gen = v.gen
	v.d.mu.Lock()
	send := v.d.onSend
	v.d.mu.Unlock()
	if send != nil {
		send(msg.To)
	}
	if msg.To == v.d.self {
		// Route local loopback straight into the view's port, so
		// self-sends never depend on the backend's loopback path.
		if !v.port.Push(msg) {
			return ErrDown
		}
		return nil
	}
	return v.d.inner.Send(msg)
}

func (v *view) Endpoint(rank int) Port {
	if rank == v.d.self {
		return v.port
	}
	return DownPort(rank)
}

func (v *view) Kill(rank int) {
	if rank == v.d.self {
		v.port.Kill()
	}
}

// Expect implements Lander when the shared mesh does: the answer is
// expected in the view's generation.
func (v *view) Expect(e *Expectation) bool {
	l, ok := v.d.inner.(Lander)
	if !ok || v.port.ready.Load() < 0 {
		return false
	}
	e.gen = v.gen
	return l.Expect(e)
}

func (v *view) Shutdown()             { v.port.Kill() }
func (v *view) Stats() Stats          { return v.d.inner.Stats() }
func (v *view) Scheduler() *Scheduler { return v.d.inner.Scheduler() }

var _ Interconnect = (*view)(nil)
