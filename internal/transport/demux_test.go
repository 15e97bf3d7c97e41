package transport

import (
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
