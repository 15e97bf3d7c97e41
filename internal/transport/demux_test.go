package transport

import (
	"sync"
	"testing"
	"time"
)

// kindedPayload is a WirePayload stub for plane routing tests.
type kindedPayload struct {
	kind uint8
	data byte
}

func (p kindedPayload) WireKind() uint8     { return p.kind }
func (p kindedPayload) MarshalWire() []byte { return []byte{p.data} }
func (p kindedPayload) TransportSize() int  { return 1 }

const (
	testKindA uint8 = 200
	testKindB uint8 = 201
)

// TestDemuxRoutesByKind: two planes over one network; each receives only
// its own kind, and the observers see both directions.
func TestDemuxRoutesByKind(t *testing.T) {
	nw := NewNetwork(2)
	d0 := NewDemux(nw, 0)
	d1 := NewDemux(nw, 1)

	a0, b0 := d0.Plane(testKindA), d0.Plane(testKindB)
	a1, b1 := d1.Plane(testKindA), d1.Plane(testKindB)

	recvFrom := make(chan int, 16)
	sentTo := make(chan int, 16)
	d1.SetObservers(func(from int) { recvFrom <- from }, nil, nil)
	d0.SetObservers(nil, func(to int) { sentTo <- to }, nil)
	d0.Start()
	d1.Start()
	defer d0.Close()
	defer d1.Close()

	if err := a0.Send(Message{From: 0, To: 1, Payload: kindedPayload{kind: testKindA, data: 7}}); err != nil {
		t.Fatalf("send A: %v", err)
	}
	if err := b0.Send(Message{From: 0, To: 1, Class: Control, Payload: kindedPayload{kind: testKindB, data: 9}}); err != nil {
		t.Fatalf("send B: %v", err)
	}

	msgA, err := a1.Endpoint(1).Recv()
	if err != nil {
		t.Fatalf("recv A: %v", err)
	}
	if p := msgA.Payload.(kindedPayload); p.kind != testKindA || p.data != 7 {
		t.Fatalf("plane A got %+v", p)
	}
	msgB, err := b1.Endpoint(1).Recv()
	if err != nil {
		t.Fatalf("recv B: %v", err)
	}
	if p := msgB.Payload.(kindedPayload); p.kind != testKindB || p.data != 9 {
		t.Fatalf("plane B got %+v", p)
	}

	// Observers: rank 1 saw two arrivals from rank 0; rank 0 recorded two
	// sends toward rank 1 (liveness piggybacking evidence).
	for i := 0; i < 2; i++ {
		select {
		case from := <-recvFrom:
			if from != 0 {
				t.Fatalf("recv observer saw from=%d", from)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("recv observer missed an arrival")
		}
		select {
		case to := <-sentTo:
			if to != 1 {
				t.Fatalf("send observer saw to=%d", to)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("send observer missed a send")
		}
	}

	// Sends on plane A must not appear on plane B.
	if _, ok, _ := b1.Endpoint(1).TryRecv(); ok {
		t.Fatal("plane B received plane A traffic")
	}
	// Local loopback stays within the plane.
	if err := a1.Send(Message{From: 1, To: 1, Payload: kindedPayload{kind: testKindA, data: 3}}); err != nil {
		t.Fatalf("loopback send: %v", err)
	}
	if msg, err := a1.Endpoint(1).Recv(); err != nil || msg.Payload.(kindedPayload).data != 3 {
		t.Fatalf("loopback recv = %+v, %v", msg, err)
	}
}

// TestDemuxLostFiresAfterFrames: a PeerLost marker queued behind a peer's
// frames reaches the lost observer only after the recv observer has seen
// every one of them, and is delivered to no plane.
func TestDemuxLostFiresAfterFrames(t *testing.T) {
	nw := NewNetwork(2)
	d1 := NewDemux(nw, 1)
	a1 := d1.Plane(testKindA)
	events := make(chan string, 16)
	d1.SetObservers(func(from int) { events <- "recv" }, nil, func(from int) {
		if from != 0 {
			t.Errorf("lost observer saw from=%d, want 0", from)
		}
		events <- "lost"
	})
	d1.Start()
	defer d1.Close()

	for i := byte(0); i < 3; i++ {
		if err := nw.Send(Message{From: 0, To: 1, Payload: kindedPayload{kind: testKindA, data: i}}); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	if err := nw.Send(Message{From: 0, To: 1, Payload: PeerLost{}}); err != nil {
		t.Fatalf("send marker: %v", err)
	}
	for i, want := range []string{"recv", "recv", "recv", "lost"} {
		select {
		case got := <-events:
			if got != want {
				t.Fatalf("observer event %d = %s, want %s", i, got, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("observer event %d (%s) never fired", i, want)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := a1.Endpoint(1).Recv(); err != nil {
			t.Fatalf("plane recv %d: %v", i, err)
		}
	}
	if _, ok, _ := a1.Endpoint(1).TryRecv(); ok {
		t.Fatal("the PeerLost marker reached a plane")
	}
}

// TestDemuxPlaneShutdownIsLocal: shutting one plane down kills only that
// plane's port; siblings keep receiving, and Demux.Close tears the rest
// down.
func TestDemuxPlaneShutdownIsLocal(t *testing.T) {
	nw := NewNetwork(2)
	d1 := NewDemux(nw, 1)
	a1, b1 := d1.Plane(testKindA), d1.Plane(testKindB)
	d1.Start()

	a1.Shutdown()
	if _, err := a1.Endpoint(1).Recv(); err == nil {
		t.Fatal("shut-down plane still receives")
	}
	// Sibling plane still works.
	if err := nw.Send(Message{From: 0, To: 1, Payload: kindedPayload{kind: testKindB, data: 1}}); err != nil {
		t.Fatalf("send: %v", err)
	}
	if msg, err := b1.Endpoint(1).Recv(); err != nil || msg.Payload.(kindedPayload).data != 1 {
		t.Fatalf("sibling plane recv = %+v, %v", msg, err)
	}

	d1.Close()
	if _, err := b1.Endpoint(1).Recv(); err == nil {
		t.Fatal("plane still receives after Demux.Close")
	}
}

// TestDemuxGenerations: a generation class over an in-memory network. A
// newer generation's messages are held until its view opens and then
// arrive in FIFO order, an older generation's are dropped, and shutting a
// view down fails its receives and sends while a sibling plane keeps
// running.
func TestDemuxGenerations(t *testing.T) {
	nw := NewNetwork(3)
	d0, d1 := NewDemux(nw, 0), NewDemux(nw, 1)
	g0, g1 := d0.Generations(testKindA, 2), d1.Generations(testKindA, 2)
	b0, b1 := d0.Plane(testKindB), d1.Plane(testKindB)
	d0.Start()
	d1.Start()
	defer d0.Close()
	defer d1.Close()
	send := func(ic Interconnect, data byte) {
		t.Helper()
		if err := ic.Send(Message{From: 0, To: 1, Payload: kindedPayload{kind: testKindA, data: data}}); err != nil {
			t.Fatalf("send %d: %v", data, err)
		}
	}
	recv := func(ic Interconnect, want byte) {
		t.Helper()
		msg, err := ic.Endpoint(1).Recv()
		if err != nil || msg.Payload.(kindedPayload).data != want {
			t.Fatalf("recv = %+v, %v; want data %d", msg, err, want)
		}
	}

	v1 := g1.Open(1)
	if v1.Size() != 2 {
		t.Fatalf("view size = %d, want 2", v1.Size())
	}
	// Rank 0 is one attempt ahead: its frames wait at rank 1.
	ahead := g0.Open(2)
	for i := byte(1); i <= 3; i++ {
		send(ahead, i)
	}
	for deadline := time.Now().Add(2 * time.Second); ; {
		g1.mu.Lock()
		n := len(g1.held)
		g1.mu.Unlock()
		if n == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of 3 newer-generation frames held", n)
		}
		time.Sleep(time.Millisecond)
	}
	if msg, ok, _ := v1.Endpoint(1).TryRecv(); ok {
		t.Fatalf("generation 1 received a generation 2 frame: %+v", msg)
	}
	v2 := g1.Open(2)
	if _, err := v1.Endpoint(1).Recv(); err != ErrDown {
		t.Fatalf("retired view recv error = %v, want ErrDown", err)
	}
	for i := byte(1); i <= 3; i++ {
		recv(v2, i)
	}

	// A frame of generation 1, still in flight, is dropped at rank 1; the
	// generation 2 frame behind it is delivered.
	if err := nw.Send(Message{From: 0, To: 1, Gen: 1, Payload: kindedPayload{kind: testKindA, data: 9}}); err != nil {
		t.Fatal(err)
	}
	send(ahead, 4)
	recv(v2, 4)

	v2.Shutdown()
	if _, err := v2.Endpoint(1).Recv(); err != ErrDown {
		t.Fatalf("recv after Shutdown = %v, want ErrDown", err)
	}
	if err := v2.Send(Message{From: 1, To: 0, Payload: kindedPayload{kind: testKindA}}); err != ErrDown {
		t.Fatalf("send after Shutdown = %v, want ErrDown", err)
	}
	if err := b0.Send(Message{From: 0, To: 1, Payload: kindedPayload{kind: testKindB, data: 5}}); err != nil {
		t.Fatal(err)
	}
	if msg, err := b1.Endpoint(1).Recv(); err != nil || msg.Payload.(kindedPayload).data != 5 {
		t.Fatalf("sibling plane recv = %+v, %v", msg, err)
	}
	if stale := g1.Open(2); stale.Send(Message{From: 1, To: 0, Payload: kindedPayload{kind: testKindA}}) != ErrDown {
		t.Fatal("reopening the current generation gave a live view")
	}
}

// sendRecorder records the messages handed to the interconnect it wraps.
type sendRecorder struct {
	Interconnect
	mu   sync.Mutex
	sent []Message
}

func (r *sendRecorder) Send(msg Message) error {
	r.mu.Lock()
	r.sent = append(r.sent, msg)
	r.mu.Unlock()
	return r.Interconnect.Send(msg)
}

// TestDemuxPassesPostedFlag: a plane and a generation view hand a posted
// send to the shared mesh with the flag as the sender set it.
func TestDemuxPassesPostedFlag(t *testing.T) {
	nw := NewNetwork(2)
	rec := &sendRecorder{Interconnect: nw}
	d := NewDemux(rec, 0)
	plane := d.Plane(testKindA)
	gens := d.Generations(testKindB, 2)
	d.Start()
	defer d.Close()
	view := gens.Open(3)
	for _, posted := range []bool{true, false} {
		if err := plane.Send(Message{From: 0, To: 1, Payload: kindedPayload{kind: testKindA}, Posted: posted}); err != nil {
			t.Fatal(err)
		}
		if err := view.Send(Message{From: 0, To: 1, Payload: kindedPayload{kind: testKindB}, Posted: posted}); err != nil {
			t.Fatal(err)
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	want := []bool{true, true, false, false}
	if len(rec.sent) != len(want) {
		t.Fatalf("mesh saw %d sends, want %d", len(rec.sent), len(want))
	}
	for i, msg := range rec.sent {
		if msg.Posted != want[i] {
			t.Fatalf("send %d reached the mesh with Posted=%v, want %v", i, msg.Posted, want[i])
		}
	}
}
