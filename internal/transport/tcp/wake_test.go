package tcp

// Event-driven waiting: a goodbye makes sends to its sender drop without a
// dial, an accepted handshake wakes the dial loop waiting on the dialer
// and lifts its redial backoff, and a departed peer that connects again is
// reachable again.

import (
	"io"
	"net"
	"testing"
	"time"

	"c3/internal/transport"
	"c3/internal/wire"
)

// rebind creates rank's mesh on an address another mesh has just released,
// retrying while the kernel still holds it.
func rebind(t *testing.T, rank int, addrs []string, opts ...Option) *Mesh {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		m, err := New(rank, addrs, opts...)
		if err == nil {
			t.Cleanup(m.Close)
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addrs[rank], err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// warmPair sends one frame each way, so each mesh holds an outbound
// connection to the other and a Close says goodbye on it.
func warmPair(t *testing.T, a, b *Mesh) {
	t.Helper()
	sendN(t, a, b.Self(), 1)
	expectFrames(t, b, 1)
	sendN(t, b, a.Self(), 1)
	expectFrames(t, a, 1)
}

// awaitGoodbye waits until m has read rank's goodbye.
func awaitGoodbye(t *testing.T, m *Mesh, rank int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !m.peer(rank).departed(); {
		if time.Now().After(deadline) {
			t.Fatalf("rank %d never read rank %d's goodbye", m.Self(), rank)
		}
		time.Sleep(time.Millisecond)
	}
}

// timedSend sends one frame and returns how long Send took.
func timedSend(t *testing.T, m *Mesh, to int, body string) time.Duration {
	t.Helper()
	start := time.Now()
	if err := m.Send(transport.Message{From: m.Self(), To: to, Payload: testPayload(body)}); err != nil {
		t.Fatalf("send: %v", err)
	}
	return time.Since(start)
}

// expectBody receives one frame and checks its body.
func expectBody(t *testing.T, m *Mesh, want string) {
	t.Helper()
	msg, ok := awaitMsg(t, m, 5*time.Second)
	if !ok {
		t.Fatalf("rank %d: %q never arrived", m.Self(), want)
	}
	if got, _ := msg.Payload.(testPayload); string(got) != want {
		t.Fatalf("rank %d got %#v, want %q", m.Self(), msg.Payload, want)
	}
}

// rawHandshake connects to addr as rank `from` and completes the
// handshake, returning the connection.
func rawHandshake(t *testing.T, addr string, from int) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	w := wire.NewWriter(hsLen)
	w.U32(hsMagic)
	w.U32(uint32(from))
	var reply [1]byte
	if _, err := c.Write(w.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, reply[:]); err != nil || reply[0] != hsAccept {
		t.Fatalf("handshake as rank %d: reply %x, %v", from, reply[0], err)
	}
	return c
}

// refuser listens on an ephemeral port but answers no handshake: it closes
// each connection after the dialer's announcement, reporting the time of
// each refusal. A dial loop aimed at it keeps retrying.
func refuser(t *testing.T) (net.Listener, <-chan time.Time) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := make(chan time.Time, 64) // one per refusal: a test reads only the first few
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			var pre [hsLen]byte
			_, _ = io.ReadFull(c, pre[:])
			refused <- time.Now()
			_ = c.Close()
		}
	}()
	t.Cleanup(func() { _ = ln.Close() })
	return ln, refused
}

// TestMeshSendAfterGoodbyeDoesNotDial: a peer that said goodbye is gone on
// purpose. Sends to it drop at once instead of redialing for the 250 ms
// "reachable before" window, and a dial loop already waiting on it gives
// up when the goodbye arrives.
func TestMeshSendAfterGoodbyeDoesNotDial(t *testing.T) {
	t.Run("send", func(t *testing.T) {
		meshes := newTestMeshes(t, 2)
		warmPair(t, meshes[0], meshes[1])
		meshes[1].Close()
		awaitGoodbye(t, meshes[0], 1)
		if d := timedSend(t, meshes[0], 1, "late"); d > 50*time.Millisecond {
			t.Fatalf("send to a peer that said goodbye took %v: it redialed", d)
		}
		if meshes[0].Stats().MessagesDropped != 1 {
			t.Fatalf("dropped = %d, want 1", meshes[0].Stats().MessagesDropped)
		}
	})

	t.Run("waiting-dial", func(t *testing.T) {
		// Rank 1's address refuses every handshake, so a send toward it
		// keeps retrying for the whole 10 s first-dial window.
		ln, refused := refuser(t)
		m0, err := New(0, []string{"127.0.0.1:0", ln.Addr().String()})
		if err != nil {
			t.Fatal(err)
		}
		defer m0.Close()
		sent := make(chan error, 1)
		go func() { sent <- m0.Send(transport.Message{From: 0, To: 1, Payload: testPayload("never")}) }()
		<-refused
		// Rank 1 connects from elsewhere and says goodbye.
		c := rawHandshake(t, m0.Addr(), 1)
		defer c.Close()
		bye := time.Now()
		if _, err := c.Write(frameHead(4+frameHeaderLen, 0, transport.Message{From: 1, To: 0, Class: transport.Control}, transport.WireKindGoodbye)); err != nil {
			t.Fatal(err)
		}
		select {
		case <-sent:
			if d := time.Since(bye); d > 100*time.Millisecond {
				t.Fatalf("dial loop gave up %v after the goodbye", d)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("dial loop kept retrying a peer that said goodbye")
		}
	})
}

// TestMeshStaleGoodbyeIgnored: a goodbye read from an older connection
// after the same rank connected again (a re-executed slot's predecessor,
// read late) must not mark the live successor departed. A goodbye on the
// latest connection does.
func TestMeshStaleGoodbyeIgnored(t *testing.T) {
	m := newTestMeshes(t, 2)[0]
	bye := frameHead(4+frameHeaderLen, 0, transport.Message{From: 1, To: 0, Class: transport.Control}, transport.WireKindGoodbye)
	sayGoodbye := func(c net.Conn) {
		if _, err := c.Write(bye); err != nil {
			t.Fatal(err)
		}
		// The mesh closes the connection once it has read the goodbye.
		if _, err := io.ReadAll(c); err != nil {
			t.Fatal(err)
		}
	}
	// connect completes the nth handshake as rank 1 and waits until the
	// mesh has counted it, so the two arrivals are numbered in order.
	connect := func(n uint64) net.Conn {
		c := rawHandshake(t, m.Addr(), 1)
		t.Cleanup(func() { _ = c.Close() })
		for deadline := time.Now().Add(5 * time.Second); m.peer(1).arrivals.Load() < n; {
			if time.Now().After(deadline) {
				t.Fatalf("handshake %d never registered", n)
			}
			time.Sleep(time.Millisecond)
		}
		return c
	}
	old, latest := connect(1), connect(2)
	sayGoodbye(old)
	if m.peer(1).departed() {
		t.Fatal("a goodbye from an older connection marked the reconnected peer departed")
	}
	sayGoodbye(latest)
	if !m.peer(1).departed() {
		t.Fatal("a goodbye on the latest connection did not mark the peer departed")
	}
}

// TestMeshDialWakesOnArrival: a dial loop waiting on a peer whose address
// still belongs to a listener that answers no handshake retries the moment
// the peer's own mesh connects here, not on its next 20 ms retry.
func TestMeshDialWakesOnArrival(t *testing.T) {
	best := time.Hour
	for trial := 0; trial < 3; trial++ {
		ln, refused := refuser(t)
		addrs := []string{"127.0.0.1:0", ln.Addr().String()}
		m0, err := New(0, addrs)
		if err != nil {
			t.Fatal(err)
		}
		addrs[0] = m0.Addr()
		sent := make(chan error, 1)
		go func() { sent <- m0.Send(transport.Message{From: 0, To: 1, Payload: testPayload("hello")}) }()
		<-refused // the dial loop now waits
		_ = ln.Close()
		m1 := rebind(t, 1, addrs)
		m1.Connect(0, nil)
		up := time.Now()
		select {
		case <-sent:
		case <-time.After(5 * time.Second):
			t.Fatal("send never completed")
		}
		if d := time.Since(up); d < best {
			best = d
		}
		expectBody(t, m1, "hello")
		m0.Close()
	}
	t.Logf("peer up -> send delivered: %v (best of 3)", best)
	if best > 10*time.Millisecond {
		t.Fatalf("the dial completed %v after the peer came up: it waited for the retry tick", best)
	}
}

// TestMeshArrivalLiftsRedialBackoff: after a failed redial, sends to the
// peer drop for redialBackoff. A restarted peer that connects inside that
// window must get its answers: its arrival lifts the backoff.
func TestMeshArrivalLiftsRedialBackoff(t *testing.T) {
	meshes := newTestMeshes(t, 2)
	addrs := append([]string(nil), meshes[0].addrs...)
	sendN(t, meshes[0], 1, 1)
	expectFrames(t, meshes[1], 1)
	meshes[1].crash()
	// The probe finds the connection dead; the redial fails and backs off.
	timedSend(t, meshes[0], 1, "lost")
	replacement := rebind(t, 1, addrs)
	sendN(t, replacement, 0, 1) // the restarted rank's query
	expectFrames(t, meshes[0], 1)
	timedSend(t, meshes[0], 1, "answer")
	expectBody(t, replacement, "answer")
}

// TestMeshReachableAfterGoodbyeAndRebind: the departed mark lasts only
// until the peer connects again. A peer that said goodbye and comes back
// on the same address is reachable once it has connected.
func TestMeshReachableAfterGoodbyeAndRebind(t *testing.T) {
	meshes := newTestMeshes(t, 2)
	addrs := append([]string(nil), meshes[0].addrs...)
	warmPair(t, meshes[0], meshes[1])
	meshes[1].Close()
	awaitGoodbye(t, meshes[0], 1)
	timedSend(t, meshes[0], 1, "gone")
	replacement := rebind(t, 1, addrs)
	sendN(t, replacement, 0, 1)
	expectFrames(t, meshes[0], 1)
	timedSend(t, meshes[0], 1, "back")
	expectBody(t, replacement, "back")
}
