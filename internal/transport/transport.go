// Package transport provides the in-process interconnect under the MPI
// substrate.
//
// The network connects n endpoints (one per rank). Delivery is reliable and
// FIFO per (source, destination) pair, which is exactly the guarantee the MPI
// layer needs to implement non-overtaking message matching. Cross-pair
// ordering is unspecified, as on a real interconnect.
//
// A LatencyModel can inject per-message and per-byte delays so that
// benchmarks can emulate interconnects with different characteristics (the
// paper evaluates on a Quadrics cluster and a Gigabit Ethernet cluster).
// With zero latency, sends enqueue directly into the destination inbox;
// with nonzero latency, each destination's delivery goroutine (started on
// demand) imposes the delay while preserving per-pair FIFO order.
//
// Endpoints can be killed (fail-stop) — a killed endpoint's blocking
// receives return ErrDown and messages addressed to it are dropped, which
// models a crashed cluster node.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"c3/internal/trace"
)

// ErrDown is returned by receive operations on a killed or shut-down
// endpoint, and by Send when the network has been shut down.
var ErrDown = errors.New("transport: endpoint down")

// Class distinguishes payload classes. The checkpointing layer uses Control
// for protocol coordination messages; everything else is Data.
type Class uint8

// Message classes.
const (
	Data Class = iota
	Control
)

func (c Class) String() string {
	switch c {
	case Data:
		return "data"
	case Control:
		return "control"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Message is one unit of delivery. Payload is opaque to the transport.
//
// Trace is the causal tracing context stamped by the interconnect's send
// path: the flight-recorder edge span id plus the sender's Lamport clock.
// It travels with the message (in memory by value, on TCP frames as 16
// extra header bytes) so the receive path can merge the Lamport clock and
// record a recv event that cmd/c3trace stitches to the matching send.
//
// Gen is the sending attempt's generation: a Demux generation view stamps
// it and interconnects carry it untouched, so the receiving node's view can
// drop an older attempt's frames and hold a newer one's.
//
// Posted marks a send that need not wait for its frame to reach the
// kernel: a non-blocking send whose payload owns its bytes, so nothing the
// sender does afterwards can change them. An interconnect may queue a
// posted message and return at once; per-pair FIFO order still holds
// against every send before and after it. A drop the interconnect can
// tell at send time (a departed peer) is counted before Send returns, and
// a later one when the queue reaches it. The in-memory Network ignores
// the flag, because its Send never waits on I/O, and the TCP mesh does
// not carry it on the wire.
type Message struct {
	From    int
	To      int
	Class   Class
	Payload any
	Trace   trace.Ctx
	Gen     uint64
	Posted  bool
}

// payloadSize reports the payload's transport size when it exposes one.
func payloadSize(msg Message) int {
	if s, ok := msg.Payload.(Sizer); ok {
		return s.TransportSize()
	}
	return 0
}

// TraceRecv records the message-edge delivery on the local recorder. A
// loss or progress report is not an edge: no send matches it.
func TraceRecv(rank int, msg Message) {
	switch msg.Payload.(type) {
	case PeerLost, PeerProgress:
	default:
		trace.Default().Recv(int32(rank), int32(msg.From), msg.Trace, uint64(payloadSize(msg)))
	}
}

// LatencyModel computes the artificial delivery delay for a message of the
// given size in bytes. A nil model means zero delay.
type LatencyModel func(from, to int, bytes int) time.Duration

// ConstantLatency returns a model with a fixed per-message delay plus a
// per-byte cost derived from the given bandwidth (bytes/second).
// bandwidth <= 0 means infinite bandwidth.
func ConstantLatency(perMessage time.Duration, bandwidth float64) LatencyModel {
	return func(_, _ int, bytes int) time.Duration {
		d := perMessage
		if bandwidth > 0 {
			d += time.Duration(float64(bytes) / bandwidth * float64(time.Second))
		}
		return d
	}
}

// Stats aggregates delivery counters for the whole network.
type Stats struct {
	MessagesSent     uint64
	MessagesDropped  uint64 // addressed to killed endpoints
	ControlMessages  uint64
	DataMessages     uint64
	DeliveredPayload uint64 // bytes, when the payload exposes a size
}

// Sizer lets payloads report their size for Stats and latency computation.
type Sizer interface{ TransportSize() int }

// Port is one rank's receive attachment on an interconnect. Receive
// operations must be called from a single goroutine (the rank's).
type Port interface {
	// Rank returns the port's rank.
	Rank() int
	// Recv blocks until a message is available or the port is killed.
	Recv() (Message, error)
	// TryRecv returns the next message without blocking; ok reports whether
	// a message was available.
	TryRecv() (msg Message, ok bool, err error)
	// Pending reports the number of queued, undelivered messages.
	Pending() int
	// Killed reports whether the port has been killed.
	Killed() bool
}

// Interconnect is the abstraction the MPI substrate and the replicated
// stable store program against. Four implementations answer to one table
// of contract cases (TestInterconnectContract, in internal/transport/tcp):
// the in-memory Network (real OS scheduling), the same Network under a
// virtual Scheduler (deterministic logical scheduling), the tcp.Mesh (real
// sockets, one OS process per rank), and a Demux plane view.
//
// Delivery is reliable and FIFO per (source, destination) pair while both
// ends are up; messages addressed to a dead or unreachable rank are dropped
// (counted in Stats.MessagesDropped), which models a fail-stop node crash.
type Interconnect interface {
	// Size returns the number of ranks.
	Size() int
	// Send delivers msg toward its destination. It never blocks on the
	// destination's consumption and returns ErrDown only when the local
	// side has been shut down. It returns once the message is handed on
	// (to the destination's queue, or to the kernel) or counted as
	// dropped; a posted message (Message.Posted) may instead be queued
	// behind the sends before it and handed on after Send returns.
	Send(msg Message) error
	// Endpoint returns the receive port for a rank. Implementations backed
	// by one process per rank return a dead port for non-local ranks.
	Endpoint(rank int) Port
	// Kill fail-stops a rank (a no-op for ranks not hosted locally).
	Kill(rank int)
	// Shutdown tears the local side of the interconnect down; all blocked
	// receives return ErrDown.
	Shutdown()
	// Stats returns a snapshot of the delivery counters.
	Stats() Stats
	// Scheduler returns the virtual schedule engine, nil under real (OS or
	// socket) scheduling.
	Scheduler() *Scheduler
}

// Network is the interconnect among n endpoints.
type Network struct {
	n       int
	eps     []*Endpoint
	latency LatencyModel
	sched   *Scheduler // non-nil: virtual deterministic scheduling

	down atomic.Bool

	statMu sync.Mutex
	stats  Stats

	// The partition fault model, one for every rank, consulted at Send.
	// Rules are installed manually (SetPartition/Heal) or by armed
	// scheduler events (WithPartitionPlan).
	cut      *Cut
	partPlan []SchedPartitionEvent
}

// Option configures a Network.
type Option func(*Network)

// WithLatency installs a latency model.
func WithLatency(m LatencyModel) Option {
	return func(nw *Network) { nw.latency = m }
}

// WithPartitionPlan arms a sequence of partition/heal events on the
// network's virtual scheduler: each fires at a seeded trigger step and is
// recorded in the decision trace, so partitioned executions replay and
// shrink exactly like any other schedule. Requires WithScheduler; ignored
// under real scheduling (use SetPartition/Heal directly there).
func WithPartitionPlan(events []SchedPartitionEvent) Option {
	return func(nw *Network) { nw.partPlan = append([]SchedPartitionEvent(nil), events...) }
}

// NewNetwork creates a network with n endpoints, numbered 0..n-1.
func NewNetwork(n int, opts ...Option) *Network {
	if n <= 0 {
		panic("transport: network size must be positive")
	}
	nw := &Network{n: n}
	for _, o := range opts {
		o(nw)
	}
	nw.eps = make([]*Endpoint, n)
	for i := range nw.eps {
		nw.eps[i] = newEndpoint(nw, i)
	}
	nw.cut = NewCut(nw.deliver)
	if nw.sched != nil && len(nw.partPlan) > 0 {
		nw.sched.ArmPartitions(nw.partPlan, nw.applyPartitionEvent)
	}
	if nw.sched != nil {
		// Virtual worlds timestamp flight-recorder events with the
		// scheduler's logical clock, so two replays of the same decision
		// trace record byte-identical per-rank timelines.
		s := nw.sched
		trace.SetClock(func() int64 { return s.Now().UnixNano() })
	}
	return nw
}

// SetPartition installs directed partition rules (Cut.Set), replacing any
// rule set in force; messages held under it stay held. Like tcp.Mesh's,
// the rules govern the messages that arrive at this interconnect: with
// hold, a severed pair's messages are kept and delivered in order at the
// next Heal (a short split bridged by retransmission); without it they are
// dropped (a blackhole), counted in Stats.MessagesDropped.
func (nw *Network) SetPartition(block [][2]int, hold bool) {
	nw.applyPartitionEvent(SchedPartitionEvent{Block: block, Hold: hold})
}

// Heal clears the active partition and delivers every held message, ahead
// of any send that follows.
func (nw *Network) Heal() {
	nw.applyPartitionEvent(SchedPartitionEvent{Heal: true})
}

// applyPartitionEvent is the rule installer shared by the manual API and
// the scheduler's armed events.
func (nw *Network) applyPartitionEvent(ev SchedPartitionEvent) {
	if !ev.Heal {
		nw.cut.Set(ev.Block, ev.Hold)
		return
	}
	for range nw.cut.Heal() {
		nw.noteDropped()
	}
}

// deliver hands msg to its destination endpoint, through the delay line
// when a latency model is installed and the network runs in real time. It
// reports false when the destination is killed.
func (nw *Network) deliver(msg Message) bool {
	dst := nw.eps[msg.To]
	if nw.latency == nil || nw.sched != nil {
		return dst.push(msg)
	}
	return dst.pushDelayed(msg, nw.latency(msg.From, msg.To, payloadSize(msg)))
}

// Size returns the number of endpoints.
func (nw *Network) Size() int { return nw.n }

// Scheduler returns the installed virtual schedule engine, or nil when the
// network runs under real (OS) scheduling.
func (nw *Network) Scheduler() *Scheduler { return nw.sched }

// Endpoint returns the endpoint for the given rank.
func (nw *Network) Endpoint(rank int) Port { return nw.eps[rank] }

var _ Interconnect = (*Network)(nil)

// Stats returns a snapshot of the delivery counters.
func (nw *Network) Stats() Stats {
	nw.statMu.Lock()
	defer nw.statMu.Unlock()
	return nw.stats
}

// Send delivers msg to its destination endpoint. It never blocks: queues are
// unbounded (the MPI layer above implements eager buffered sends).
func (nw *Network) Send(msg Message) error {
	if nw.down.Load() {
		return ErrDown
	}
	if msg.To < 0 || msg.To >= nw.n {
		return fmt.Errorf("transport: destination %d out of range [0,%d)", msg.To, nw.n)
	}
	size := payloadSize(msg)
	nw.statMu.Lock()
	nw.stats.MessagesSent++
	if msg.Class == Control {
		nw.stats.ControlMessages++
	} else {
		nw.stats.DataMessages++
	}
	nw.stats.DeliveredPayload += uint64(size)
	nw.statMu.Unlock()

	if msg.Trace.Span == 0 {
		msg.Trace = trace.Default().Send(int32(msg.From), int32(msg.To), uint64(size))
	}

	if nw.sched != nil {
		// Virtual mode: the send is a scheduling point, delivery is
		// instantaneous under the token (latency models are ignored; time
		// is logical). Per-pair FIFO holds because pushes are serialized.
		nw.sched.point(msg.From)
	}
	if !nw.cut.Deliver(msg) {
		nw.noteDropped()
	}
	return nil
}

func (nw *Network) noteDropped() {
	nw.statMu.Lock()
	nw.stats.MessagesDropped++
	nw.statMu.Unlock()
}

// Kill marks the endpoint as failed: pending and future receives return
// ErrDown and messages addressed to it are dropped. Kill models a fail-stop
// node crash and is irreversible for this network instance.
func (nw *Network) Kill(rank int) { nw.eps[rank].kill() }

// Shutdown kills every endpoint and refuses further sends. It is used to
// tear down the world after a failure so that all ranks unblock.
func (nw *Network) Shutdown() {
	nw.down.Store(true)
	for _, ep := range nw.eps {
		ep.kill()
	}
}

// Endpoint is one rank's attachment point on the in-memory network: its
// Inbox plus receive tracing, the schedule engine's decision points and,
// under real scheduling, the poll before parking. Receive operations must
// be called from the rank's goroutine; push may be called from any.
type Endpoint struct {
	in *Inbox
	nw *Network

	// The delay line of a latency model: one worker, started on demand and
	// gone once the line drains, sleeps until each message is due and
	// pushes it, preserving arrival order at this endpoint.
	delayMu  sync.Mutex
	delayQ   []delayed
	delaying bool
}

type delayed struct {
	msg Message
	due time.Time
}

func newEndpoint(nw *Network, rank int) *Endpoint {
	return &Endpoint{in: NewInbox(rank), nw: nw}
}

// Rank returns the endpoint's rank.
func (ep *Endpoint) Rank() int { return ep.in.rank }

// Pending reports the number of queued, undelivered messages.
func (ep *Endpoint) Pending() int { return ep.in.Pending() }

// Killed reports whether the endpoint has been killed.
func (ep *Endpoint) Killed() bool { return ep.in.Killed() }

// push enqueues directly. It reports false if the endpoint is killed.
func (ep *Endpoint) push(msg Message) bool {
	if !ep.in.Push(msg) {
		return false
	}
	if s := ep.nw.sched; s != nil {
		s.wake(ep.in.rank)
	}
	return true
}

// pushDelayed queues msg on the delay line without blocking. It reports
// false for a message toward a killed endpoint, dropped at once.
func (ep *Endpoint) pushDelayed(msg Message, delay time.Duration) bool {
	if ep.Killed() {
		return false
	}
	// The latency model is wall-clock by definition and is only installed
	// by real-time tests and benches; scheduled (replayable) runs install
	// no LatencyModel, so none of this executes under the schedule engine.
	due := time.Now().Add(delay) //c3lint:allow determinism wall-clock latency injection; never active under the scheduler
	ep.delayMu.Lock()
	ep.delayQ = append(ep.delayQ, delayed{msg: msg, due: due})
	start := !ep.delaying
	ep.delaying = true
	ep.delayMu.Unlock()
	if start {
		go ep.deliveryLoop()
	}
	return true
}

func (ep *Endpoint) deliveryLoop() {
	for {
		ep.delayMu.Lock()
		if len(ep.delayQ) == 0 {
			ep.delaying = false
			ep.delayMu.Unlock()
			return
		}
		d := ep.delayQ[0]
		ep.delayQ = ep.delayQ[1:]
		ep.delayMu.Unlock()
		if wait := time.Until(d.due); wait > 0 && !ep.Killed() { //c3lint:allow determinism wall-clock latency worker; never active under the scheduler
			time.Sleep(wait)
		}
		if !ep.push(d.msg) {
			ep.nw.noteDropped()
		}
	}
}

// Recv blocks until a message is available or the endpoint is killed.
// Under real scheduling an empty queue is polled (Inbox.poll) before the
// receiver parks.
func (ep *Endpoint) Recv() (Message, error) {
	if s := ep.nw.sched; s != nil {
		return ep.recvVirtual(s)
	}
	ep.in.poll()
	msg, err := ep.in.Recv()
	if err == nil {
		TraceRecv(ep.in.rank, msg)
	}
	return msg, err
}

// recvVirtual is Recv under the virtual schedule engine: an empty queue
// yields the token instead of polling or parking, so the engine decides
// which rank's progress makes the message arrive.
func (ep *Endpoint) recvVirtual(s *Scheduler) (Message, error) {
	s.point(ep.in.rank)
	for {
		msg, ok, err := ep.in.TryRecv()
		if ok {
			TraceRecv(ep.in.rank, msg)
			return msg, nil
		}
		if err != nil {
			return Message{}, err
		}
		if err := s.block(ep.in.rank); err != nil {
			return Message{}, err
		}
	}
}

// TryRecv returns the next message without blocking. ok reports whether a
// message was available.
func (ep *Endpoint) TryRecv() (msg Message, ok bool, err error) {
	if s := ep.nw.sched; s != nil {
		s.point(ep.in.rank)
	}
	msg, ok, err = ep.in.TryRecv()
	if ok {
		TraceRecv(ep.in.rank, msg)
	}
	return msg, ok, err
}

// Forward implements the demux's pass-through (Inbox.Forward).
func (ep *Endpoint) Forward(fn func(Message)) { ep.in.Forward(fn) }

func (ep *Endpoint) kill() {
	ep.in.Kill()
	if s := ep.nw.sched; s != nil {
		s.wake(ep.in.rank)
	}
}
