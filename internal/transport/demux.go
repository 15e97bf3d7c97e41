package transport

// Demux splits one physical interconnect into kind-keyed logical planes, so
// independent subsystems can share a single long-lived mesh. The
// multi-process runtime routes the replication plane (stable.DistStore) and
// the failure-detection plane (internal/detect) over one TCP mesh this way:
// a single pump goroutine reads the local endpoint and dispatches each
// message to the plane registered for its payload's WireKind.
//
// The demux also exposes observer hooks on both directions. The failure
// detector uses them to piggyback liveness on existing traffic: every
// message received from a peer counts as a heartbeat from it, and every
// message sent toward a peer lets the emitter skip the next explicit ping.
// A third hook carries loss reports: a backend that can tell a dead peer
// process from its connection's end (LossReporter) queues a PeerLost
// marker behind that connection's last frame, and the pump fires the lost
// observer only after the recv observer has seen every frame before it.

import (
	"sync"
)

// PeerLost is the payload of a loss report: the in-band marker a
// LossReporter queues on its local port behind the last frame of a
// connection whose peer process is gone. Message.From names the peer.
type PeerLost struct{}

// LossReporter is implemented by interconnects that can confirm a peer
// process's death from its connection (the TCP mesh). Reports are off
// until ReportLosses is called: a consumer that does not read PeerLost
// markers (the MPI layer) never receives one.
type LossReporter interface {
	ReportLosses()
}

// Demux fans one Interconnect's local receive stream out to per-kind
// planes. Create planes with Plane, install observers, then call Start.
type Demux struct {
	inner Interconnect
	self  int

	mu       sync.Mutex
	planes   map[uint8]*demuxPlane
	onRecv   func(from int)
	onSend   func(to int)
	onLost   func(from int)
	started  bool
	shutdown bool

	wg sync.WaitGroup
}

// NewDemux wraps the interconnect whose local rank is self.
func NewDemux(inner Interconnect, self int) *Demux {
	return &Demux{inner: inner, self: self, planes: make(map[uint8]*demuxPlane)}
}

// Plane returns the logical interconnect carrying payloads of the given
// wire kind. All planes must be created before Start; messages arriving for
// a kind with no plane are dropped.
func (d *Demux) Plane(kind uint8) Interconnect {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.planes[kind]
	if p == nil {
		p = &demuxPlane{d: d, port: newQueuePort(d.self)}
		d.planes[kind] = p
	}
	return p
}

// SetObservers installs the liveness hooks: recv fires for every message
// the pump delivers (any plane), send for every outbound message, and lost
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
	recv := d.onRecv
	plane := d.planes[kind]
	d.mu.Unlock()
	if recv != nil {
		recv(msg.From)
	}
	if plane == nil {
		return false
	}
	return plane.port.push(msg)
}

// Start launches the pump goroutine. It must be called exactly once, after
// every Plane and SetObservers call.
func (d *Demux) Start() {
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return
	}
	d.started = true
	lost := d.onLost
	d.mu.Unlock()
	if lr, ok := d.inner.(LossReporter); ok && lost != nil {
		lr.ReportLosses()
	}
	d.wg.Add(1)
	go d.pump()
}

// Close shuts the underlying interconnect down (unblocking the pump and
// every plane's receivers) and waits for the pump to exit.
func (d *Demux) Close() {
	d.mu.Lock()
	d.shutdown = true
	planes := make([]*demuxPlane, 0, len(d.planes))
	for _, p := range d.planes {
		planes = append(planes, p)
	}
	d.mu.Unlock()
	d.inner.Shutdown()
	for _, p := range planes {
		p.port.kill()
	}
	d.wg.Wait()
}

// pump moves messages from the shared endpoint into per-plane ports.
func (d *Demux) pump() {
	defer d.wg.Done()
	ep := d.inner.Endpoint(d.self)
	for {
		msg, err := ep.Recv()
		if err != nil {
			return // interconnect shut down
		}
		d.mu.Lock()
		recv, lost := d.onRecv, d.onLost
		var plane *demuxPlane
		if wp, ok := msg.Payload.(WirePayload); ok {
			plane = d.planes[wp.WireKind()]
		}
		d.mu.Unlock()
		if _, ok := msg.Payload.(PeerLost); ok {
			if lost != nil {
				lost(msg.From)
			}
			continue
		}
		if recv != nil {
			recv(msg.From)
		}
		if plane != nil {
			plane.port.push(msg)
		}
	}
}

// demuxPlane is one logical interconnect: sends pass through to the shared
// mesh, receives come from the plane's own port fed by the pump. Shutdown
// kills only the plane's port — the shared mesh stays up for its siblings;
// tearing the whole mesh down is Demux.Close's job.
type demuxPlane struct {
	d    *Demux
	port *queuePort
}

func (p *demuxPlane) Size() int { return p.d.inner.Size() }

func (p *demuxPlane) Send(msg Message) error {
	p.d.mu.Lock()
	send := p.d.onSend
	p.d.mu.Unlock()
	if send != nil {
		send(msg.To)
	}
	if msg.To == p.d.self {
		// Local loopback would be consumed by the shared endpoint the pump
		// owns on some interconnects; route it straight into the plane port
		// so self-sends never depend on the backend's loopback path.
		if !p.port.push(msg) {
			return ErrDown
		}
		return nil
	}
	return p.d.inner.Send(msg)
}

func (p *demuxPlane) Endpoint(rank int) Port {
	if rank == p.d.self {
		return p.port
	}
	return downPort{rank: rank}
}

func (p *demuxPlane) Kill(rank int) {
	if rank == p.d.self {
		p.port.kill()
	}
}

func (p *demuxPlane) Shutdown()             { p.port.kill() }
func (p *demuxPlane) Stats() Stats          { return p.d.inner.Stats() }
func (p *demuxPlane) Scheduler() *Scheduler { return p.d.inner.Scheduler() }

var _ Interconnect = (*demuxPlane)(nil)

// queuePort is a minimal local receive queue (the demux analogue of the
// in-memory Endpoint and the TCP mesh's port).
type queuePort struct {
	rank int

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Message
	killed bool
}

func newQueuePort(rank int) *queuePort {
	p := &queuePort{rank: rank}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *queuePort) Rank() int { return p.rank }

func (p *queuePort) push(msg Message) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.killed {
		return false
	}
	p.queue = append(p.queue, msg)
	p.cond.Signal()
	return true
}

func (p *queuePort) kill() {
	p.mu.Lock()
	p.killed = true
	p.queue = nil
	p.mu.Unlock()
	p.cond.Broadcast()
}

func (p *queuePort) Recv() (Message, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.queue) == 0 {
		if p.killed {
			return Message{}, ErrDown
		}
		p.cond.Wait()
	}
	msg := p.queue[0]
	p.queue = p.queue[1:]
	return msg, nil
}

func (p *queuePort) TryRecv() (Message, bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.killed {
		return Message{}, false, ErrDown
	}
	if len(p.queue) == 0 {
		return Message{}, false, nil
	}
	msg := p.queue[0]
	p.queue = p.queue[1:]
	return msg, true, nil
}

func (p *queuePort) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

func (p *queuePort) Killed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.killed
}

// downPort stands in for remote ranks: their receive sides live elsewhere.
type downPort struct{ rank int }

func (d downPort) Rank() int              { return d.rank }
func (d downPort) Recv() (Message, error) { return Message{}, ErrDown }
func (d downPort) TryRecv() (Message, bool, error) {
	return Message{}, false, ErrDown
}
func (d downPort) Pending() int { return 0 }
func (d downPort) Killed() bool { return true }
