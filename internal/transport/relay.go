package transport

// Inter-group relay plane. In a two-level topology (member.Topology) only
// a group's delegate keeps cross-group connections warm; every other rank
// reaches a rank outside its group in two hops — through a delegate — so
// the per-rank connection graph stays O(g + world/g) instead of O(world).
// The relay is a thin router over a demux plane: a RelayPayload wraps
// another wire kind's payload with its original sender and final
// destination, the intermediate's router forwards it, and the destination's
// router unwraps it and injects it into the inner kind's plane as if it had
// arrived directly (the original sender stays the liveness-credited peer).
//
// The relay is deliberately topology-blind: callers pick the intermediate
// hop (detect routes via the destination group's runtime delegate). A hop
// budget bounds misrouted frames instead of letting them orbit.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"c3/internal/wire"
)

// relayMaxHops bounds forwarding: source -> intermediate -> destination
// needs one forward; a few spare hops tolerate a re-route, anything past
// that is a routing loop and the frame is dropped.
const relayMaxHops = 3

// RelayPayload is a wrapped message in flight through an intermediate rank.
type RelayPayload struct {
	// Orig is the original sender; Dest the final destination.
	Orig, Dest int
	// Kind is the inner payload's wire kind; Data its wire encoding.
	Kind uint8
	Data []byte
	// Hops is the remaining forward budget.
	Hops uint8
}

// TransportSize implements Sizer (in-memory network accounting).
func (p *RelayPayload) TransportSize() int { return 20 + len(p.Data) }

// WireKind implements WirePayload.
func (p *RelayPayload) WireKind() uint8 { return WireKindRelay }

// MarshalWire implements WirePayload.
func (p *RelayPayload) MarshalWire() []byte {
	w := wire.NewWriter(26 + len(p.Data))
	w.Int(p.Orig)
	w.Int(p.Dest)
	w.U8(p.Kind)
	w.U8(p.Hops)
	w.Bytes32(p.Data)
	return w.Bytes()
}

func init() {
	RegisterWireDecoder(WireKindRelay, func(data []byte) (any, error) {
		r := wire.NewReader(data)
		p := &RelayPayload{Orig: r.Int(), Dest: r.Int(), Kind: r.U8(), Hops: r.U8()}
		p.Data = append([]byte(nil), r.Bytes32()...)
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("transport: relay payload: %w", err)
		}
		return p, nil
	})
}

// Relay is one rank's router on the relay plane of a Demux. Create it
// before Demux.Start (it claims the WireKindRelay plane), then Start it.
type Relay struct {
	demux *Demux
	self  int
	plane Interconnect

	forwarded atomic.Int64
	delivered atomic.Int64

	wg sync.WaitGroup
}

// NewRelay claims the demux's relay plane for rank d.self.
func NewRelay(d *Demux) *Relay {
	return &Relay{demux: d, self: d.self, plane: d.Plane(WireKindRelay)}
}

// Start launches the router goroutine.
func (r *Relay) Start() {
	r.wg.Add(1)
	go r.loop()
}

// Close stops the router. The demux (and its mesh) stays up.
func (r *Relay) Close() {
	r.plane.Kill(r.self)
	r.wg.Wait()
}

// Forwarded returns how many frames this rank relayed onward for others;
// Delivered how many arrived here and were injected into their inner plane.
func (r *Relay) Forwarded() int64 { return r.forwarded.Load() }
func (r *Relay) Delivered() int64 { return r.delivered.Load() }

// Send routes inner toward dest through the intermediate rank via. A send
// to self (or via self) short-circuits: the payload is injected locally or
// sent directly without touching the wire twice. The frame is posted
// (Message.Posted), as a forward is.
func (r *Relay) Send(via, dest int, inner WirePayload) error {
	p := &RelayPayload{Orig: r.self, Dest: dest, Kind: inner.WireKind(),
		Data: inner.MarshalWire(), Hops: relayMaxHops}
	if dest == r.self {
		r.deliver(p)
		return nil
	}
	if via == r.self || via == dest {
		via = dest
	}
	return r.plane.Send(Message{From: r.self, To: via, Class: Control, Payload: p, Posted: true})
}

func (r *Relay) loop() {
	defer r.wg.Done()
	ep := r.plane.Endpoint(r.self)
	for {
		msg, err := ep.Recv()
		if err != nil {
			return
		}
		p, ok := msg.Payload.(*RelayPayload)
		if !ok {
			continue
		}
		if p.Dest == r.self {
			r.deliver(p)
			continue
		}
		if p.Hops == 0 {
			continue // routing loop: drop instead of orbiting
		}
		fwd := *p
		fwd.Hops--
		r.forwarded.Add(1)
		_ = r.plane.Send(Message{From: r.self, To: p.Dest, Class: Control, Payload: &fwd, Posted: true})
	}
}

// deliver unwraps a payload addressed to this rank and injects it into its
// inner kind's plane, attributed to the original sender.
func (r *Relay) deliver(p *RelayPayload) {
	inner, err := DecodeWirePayload(p.Kind, p.Data)
	if err != nil {
		return
	}
	r.delivered.Add(1)
	r.demux.Inject(p.Kind, Message{From: p.Orig, To: r.self, Class: Control, Payload: inner})
}
