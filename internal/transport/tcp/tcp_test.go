package tcp

import (
	"bytes"
	"net"
	"testing"
	"time"

	"c3/internal/mpi"
	"c3/internal/transport"
	"c3/internal/wire"
)

// testPayload is a minimal wire payload for transport tests.
type testPayload []byte

func (p testPayload) TransportSize() int { return len(p) }
func (p testPayload) WireKind() uint8    { return 0xEE }
func (p testPayload) MarshalWire() []byte {
	w := wire.NewWriter(len(p))
	w.Bytes32(p)
	return w.Bytes()
}

func init() {
	transport.RegisterWireDecoder(0xEE, func(data []byte) (any, error) {
		r := wire.NewReader(data)
		b := r.Bytes32()
		if err := r.Err(); err != nil {
			return nil, err
		}
		return testPayload(b), nil
	})
}

// withListener hands New an already bound listener, so a test knows every
// rank's address before the first mesh exists.
func withListener(ln net.Listener) Option {
	return func(m *Mesh) { m.ln = ln }
}

// listenAll binds n ephemeral loopback listeners and returns them with
// their addresses.
func listenAll(t testing.TB, n int) ([]net.Listener, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	return lns, addrs
}

// newTestMeshes brings up an n-rank mesh world on ephemeral ports.
func newTestMeshes(t testing.TB, n int, opts ...Option) []*Mesh {
	t.Helper()
	lns, addrs := listenAll(t, n)
	meshes := make([]*Mesh, n)
	for i := 0; i < n; i++ {
		m, err := New(i, addrs, append([]Option{withListener(lns[i])}, opts...)...)
		if err != nil {
			t.Fatalf("mesh %d: %v", i, err)
		}
		meshes[i] = m
	}
	t.Cleanup(func() {
		for _, m := range meshes {
			m.Close()
		}
	})
	return meshes
}

func recvOne(t *testing.T, m *Mesh, timeout time.Duration) (transport.Message, bool) {
	t.Helper()
	done := make(chan transport.Message, 1)
	go func() {
		msg, err := m.Endpoint(m.Self()).Recv()
		if err == nil {
			done <- msg
		}
	}()
	select {
	case msg := <-done:
		return msg, true
	case <-time.After(timeout):
		return transport.Message{}, false
	}
}

func TestMeshLoopback(t *testing.T) {
	meshes := newTestMeshes(t, 2)
	if err := meshes[1].Send(transport.Message{From: 1, To: 1, Payload: testPayload("self")}); err != nil {
		t.Fatalf("self send: %v", err)
	}
	msg, ok := recvOne(t, meshes[1], time.Second)
	if !ok || string(msg.Payload.(testPayload)) != "self" {
		t.Fatalf("loopback failed: %v %v", msg, ok)
	}
}

// TestMeshCarriesMessageGeneration: the frame header carries each
// message's generation, and the mesh delivers every generation; keeping
// attempts apart is the receiving node's generation view's job.
func TestMeshCarriesMessageGeneration(t *testing.T) {
	meshes := newTestMeshes(t, 2)
	for _, gen := range []uint64{2, 1, 0} {
		if err := meshes[0].Send(transport.Message{From: 0, To: 1, Gen: gen, Payload: testPayload("g")}); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []uint64{2, 1, 0} {
		msg, ok := recvOne(t, meshes[1], 5*time.Second)
		if !ok {
			t.Fatalf("generation %d frame lost", want)
		}
		if msg.Gen != want {
			t.Fatalf("frame arrived with generation %d, want %d", msg.Gen, want)
		}
	}
}

// TestMeshReconnectAfterRestart is the reconnect-on-restart contract: a
// peer dies (its mesh closes, as a SIGKILLed process's kernel would), a
// replacement binds the same address, and the next sends reach it without
// any lost-frame window — the half-open probe must catch the dead cached
// connection before TCP swallows the first write.
func TestMeshReconnectAfterRestart(t *testing.T) {
	meshes := newTestMeshes(t, 2)
	addrs := append([]string(nil), meshes[0].addrs...)

	// Warm the 0->1 connection.
	if err := meshes[0].Send(transport.Message{From: 0, To: 1, Payload: testPayload("warm")}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvOne(t, meshes[1], 2*time.Second); !ok {
		t.Fatal("warm-up message lost")
	}

	// Rank 1 "dies" and is re-executed on the same address.
	meshes[1].Close()
	time.Sleep(50 * time.Millisecond)
	replacement, err := New(1, addrs, WithDialWindow(2*time.Second))
	if err != nil {
		t.Fatalf("replacement: %v", err)
	}
	defer replacement.Close()

	if err := meshes[0].Send(transport.Message{From: 0, To: 1, Payload: testPayload("after-restart")}); err != nil {
		t.Fatal(err)
	}
	msg, ok := recvOne(t, replacement, 5*time.Second)
	if !ok {
		t.Fatal("message to restarted peer lost")
	}
	if got := string(msg.Payload.(testPayload)); got != "after-restart" {
		t.Fatalf("restarted peer got %q", got)
	}
}

func TestMeshDropsToDeadPeerWithoutError(t *testing.T) {
	meshes := newTestMeshes(t, 2, WithDialWindow(500*time.Millisecond))
	meshes[1].Close()
	time.Sleep(20 * time.Millisecond)
	// No replacement listens: sends must drop, not error or hang.
	start := time.Now()
	if err := meshes[0].Send(transport.Message{From: 0, To: 1, Payload: testPayload("x")}); err != nil {
		t.Fatalf("send to dead peer errored: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("send to dead peer blocked %v", d)
	}
	if meshes[0].Stats().MessagesDropped == 0 {
		t.Fatal("drop not counted")
	}
}

func TestMeshRefusedSendIsNotCounted(t *testing.T) {
	meshes := newTestMeshes(t, 2)
	// A payload with no wire encoding is refused before it is counted.
	if err := meshes[0].Send(transport.Message{From: 0, To: 1, Payload: "no wire form"}); err == nil {
		t.Fatal("a payload without WirePayload was accepted")
	}
	if st := meshes[0].Stats(); st != (transport.Stats{}) {
		t.Fatalf("refused send counted: %+v", st)
	}
	if err := meshes[0].Send(transport.Message{From: 0, To: 1, Payload: testPayload("ok")}); err != nil {
		t.Fatal(err)
	}
	if st := meshes[0].Stats(); st.MessagesSent != 1 || st.DataMessages != 1 || st.DeliveredPayload != 2 {
		t.Fatalf("accepted send counted as %+v", st)
	}
}

// BenchmarkMeshWindow is one window of frames between two loopback meshes,
// then an 8 B reply: the small-message stream (32 x 1 KiB, each frame
// inline), the same stream posted (an Isend window: the frames queue and
// the peer's writer sends them in batches), the posted stream as the MPI
// layer sends it (a new mpi.Envelope per frame, framed from its head and
// data), and, as the bulk bypass, checkpoint-fragment-sized frames
// (4 x 1 MiB, each written as header plus body).
func BenchmarkMeshWindow(b *testing.B) {
	for _, c := range []struct {
		name              string
		window, frame     int
		posted, envelopes bool
	}{
		{"32x1KiB", 32, 1 << 10, false, false},
		{"32x1KiB-posted", 32, 1 << 10, true, false},
		{"32x1KiB-envelopes", 32, 1 << 10, true, true},
		{"4x1MiB", 4, 1 << 20, false, false},
	} {
		b.Run(c.name, func(b *testing.B) { benchWindow(b, c.window, c.frame, c.posted, c.envelopes) })
	}
}

// benchWindow times windows of frames, each answered by one short reply.
// With envelopes, each frame is a new mpi.Envelope, as every MPI send
// makes one; otherwise one testPayload is sent again and again.
func benchWindow(b *testing.B, window, frame int, posted, envelopes bool) {
	meshes := newTestMeshes(b, 2)
	client, server := meshes[0].Endpoint(0), meshes[1].Endpoint(1)
	payload, reply := make(testPayload, frame), make(testPayload, 8)
	next := func() any { return payload }
	if envelopes {
		next = func() any { return &mpi.Envelope{Tag: 1, Data: payload} }
	}
	n := b.N
	served := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			for k := 0; k < window; k++ {
				if _, err := server.Recv(); err != nil {
					served <- err
					return
				}
			}
			if err := meshes[1].Send(transport.Message{From: 1, To: 0, Payload: reply}); err != nil {
				served <- err
				return
			}
		}
		served <- nil
	}()
	b.SetBytes(int64(window * frame))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < n; i++ {
		for k := 0; k < window; k++ {
			if err := meshes[0].Send(transport.Message{From: 0, To: 1, Payload: next(), Posted: posted}); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := client.Recv(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := <-served; err != nil {
		b.Fatal(err)
	}
}

// splitPayload is testPayload's encoding as a transport.SplitPayload: the
// length prefix as head, the bytes where they lie as body.
type splitPayload []byte

func (p splitPayload) WireKind() uint8     { return 0xEE }
func (p splitPayload) MarshalWire() []byte { return testPayload(p).MarshalWire() }
func (p splitPayload) WireParts() (head, body []byte) {
	w := wire.NewWriter(4)
	w.U32(uint32(len(p)))
	return w.Bytes(), p
}

// TestMeshWritesSplitBodyInPlace: a bulk split payload's frame carries the
// body slice itself behind the frame and payload heads — one writev, no
// copy — and the peer decodes the same bytes as from the joined encoding.
// A short body is copied into the one buffer.
func TestMeshWritesSplitBodyInPlace(t *testing.T) {
	for _, n := range []int{bulkBody - 5, bulkBody, 1<<20 + 3} {
		body := make(splitPayload, n)
		for i := range body {
			body[i] = byte(i * 7)
		}
		msg := transport.Message{From: 0, To: 1, Class: transport.Data, Payload: body}
		kind, head, b, err := marshalBody(msg.Payload)
		if err != nil {
			t.Fatal(err)
		}
		frame := encodeFrame(msg, kind, head, b)
		joined := append(append([]byte(nil), frame.head...), frame.body...)
		want := append(frameHead(0, n+4, msg, kind), body.MarshalWire()...)
		if !bytes.Equal(joined, want) {
			t.Fatalf("%d-byte body: frame bytes differ from the joined encoding's", n)
		}
		switch {
		case n < bulkBody && frame.body != nil:
			t.Fatalf("%d-byte body: a short body is not copied into the frame's one buffer", n)
		case n >= bulkBody && (len(frame.body) != n || &frame.body[0] != &body[0]):
			t.Fatalf("%d-byte body: the frame's body is not the payload's body slice", n)
		}
	}
	meshes := newTestMeshes(t, 2)
	body := make(splitPayload, 1<<20+3)
	for i := range body {
		body[i] = byte(i * 13)
	}
	if err := meshes[0].Send(transport.Message{From: 0, To: 1, Class: transport.Data, Payload: body}); err != nil {
		t.Fatal(err)
	}
	msg, ok := recvOne(t, meshes[1], 5*time.Second)
	if !ok {
		t.Fatal("split payload not delivered")
	}
	if got := msg.Payload.(testPayload); !bytes.Equal(got, body) {
		t.Fatal("split payload arrived with other bytes")
	}
}
