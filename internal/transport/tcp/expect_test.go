package tcp

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"c3/internal/transport"
	"c3/internal/wire"
)

// Tests for the landing contract: a frame a receiver expects has its body
// read into the buffer the receiver named, and every other frame takes
// the normal path into a buffer of its own.

// taggedPayload is a payload with an 8-byte head of its own choosing and a
// body of any length: wire encoding tag, then body.
type taggedPayload struct {
	tag  [8]byte
	body []byte
}

const taggedKind = 0xED

func (p taggedPayload) WireKind() uint8                { return taggedKind }
func (p taggedPayload) MarshalWire() []byte            { return append(p.tag[:], p.body...) }
func (p taggedPayload) WireParts() (head, body []byte) { return p.tag[:], p.body }

func init() {
	transport.RegisterWireDecoder(taggedKind, func(data []byte) (any, error) {
		var p taggedPayload
		if len(data) < len(p.tag) {
			return nil, fmt.Errorf("tagged payload of %d bytes", len(data))
		}
		copy(p.tag[:], data)
		p.body = data[len(p.tag):]
		return p, nil
	})
}

func tagged(tag string, n int, fill byte) taggedPayload {
	p := taggedPayload{body: bytes.Repeat([]byte{fill}, n)}
	copy(p.tag[:], tag)
	return p
}

// expectInto arms, on m, the answer from peer with the given tag and a
// fresh body buffer of n bytes, and returns the expectation.
func expectInto(t *testing.T, m transport.Lander, from int, tag string, n int) *transport.Expectation {
	t.Helper()
	e := &transport.Expectation{From: from, Reply: tagged(tag, n, 0)}
	if !m.Expect(e) {
		t.Fatal("Expect refused")
	}
	return e
}

func bodyOf(e *transport.Expectation) []byte {
	_, body := e.Reply.WireParts()
	return body
}

// recvTagged receives the next message on m as a taggedPayload.
func recvTagged(t *testing.T, m *Mesh) taggedPayload {
	t.Helper()
	msg, ok := recvOne(t, m, 5*time.Second)
	if !ok {
		t.Fatal("no message")
	}
	p, ok := msg.Payload.(taggedPayload)
	if !ok {
		t.Fatalf("payload %T", msg.Payload)
	}
	return p
}

// TestMeshLandsExpectedFrame: a matched frame's body is read into the
// named buffer and delivered as the expectation's own payload, head and
// body apart, and the expectation is disarmed.
func TestMeshLandsExpectedFrame(t *testing.T) {
	meshes := newTestMeshes(t, 2)
	e := expectInto(t, meshes[1], 0, "answer-1", 100_000)
	if err := meshes[0].Send(transport.Message{From: 0, To: 1, Payload: tagged("answer-1", 100_000, 7)}); err != nil {
		t.Fatal(err)
	}
	got := recvTagged(t, meshes[1])
	if dst := bodyOf(e); &got.body[0] != &dst[0] || !bytes.Equal(dst, bytes.Repeat([]byte{7}, 100_000)) {
		t.Fatal("the expected frame's body did not land in the named buffer")
	}
	if !e.Cancel() || meshes[1].ArmedExpectations() != 0 {
		t.Fatal("a landed expectation is still armed, or its buffer still claimed")
	}
}

// TestMeshUnmatchedFramesTakeNormalPath: a frame from another peer, with
// another head, another length or another kind leaves the named buffer
// alone and arrives in a buffer of its own; a matching frame after them
// still lands. The frame of another kind carries the very bytes the
// expected one does.
func TestMeshUnmatchedFramesTakeNormalPath(t *testing.T) {
	meshes := newTestMeshes(t, 3)
	const n = 8 << 10
	w := wire.NewWriter(8)
	w.U32(n + 4) // testPayload's length prefix, for the other kind
	tag := string(append(w.Bytes(), "ans1"...))
	e := expectInto(t, meshes[1], 0, tag, n)
	for _, c := range []struct {
		name string
		from int
		p    transport.WirePayload
	}{
		{"other peer", 2, tagged(tag, n, 1)},
		{"other head", 0, tagged("answer-2", n, 2)},
		{"other length", 0, tagged(tag, n+8, 3)},
		{"other kind", 0, testPayload(append([]byte("ans1"), bytes.Repeat([]byte{4}, n)...))},
	} {
		if err := meshes[c.from].Send(transport.Message{From: c.from, To: 1, Payload: c.p}); err != nil {
			t.Fatal(err)
		}
		msg, ok := recvOne(t, meshes[1], 5*time.Second)
		if !ok {
			t.Fatalf("%s: not delivered", c.name)
		}
		if p, ok := msg.Payload.(taggedPayload); ok && len(p.body) > 0 && &p.body[0] == &bodyOf(e)[0] {
			t.Fatalf("%s: delivered in the named buffer", c.name)
		}
	}
	// The buffer is the receiver's to read only once Cancel handed it back.
	if !e.Cancel() || !bytes.Equal(bodyOf(e), make([]byte, n)) {
		t.Fatal("an unmatched frame wrote the named buffer")
	}
	e = expectInto(t, meshes[1], 0, tag, n)
	if err := meshes[0].Send(transport.Message{From: 0, To: 1, Payload: tagged(tag, n, 9)}); err != nil {
		t.Fatal(err)
	}
	if got := recvTagged(t, meshes[1]); &got.body[0] != &bodyOf(e)[0] {
		t.Fatal("the matching frame behind the others did not land")
	}
}

// TestMeshExpectationMatchesOnce: of two frames that both match, the first
// lands and the second, a duplicate, arrives in a buffer of its own,
// leaving the landed bytes alone.
func TestMeshExpectationMatchesOnce(t *testing.T) {
	meshes := newTestMeshes(t, 2)
	const n = 16 << 10
	e := expectInto(t, meshes[1], 0, "answer-1", n)
	for _, fill := range []byte{4, 5} {
		if err := meshes[0].Send(transport.Message{From: 0, To: 1, Payload: tagged("answer-1", n, fill)}); err != nil {
			t.Fatal(err)
		}
	}
	first, second := recvTagged(t, meshes[1]), recvTagged(t, meshes[1])
	if &first.body[0] != &bodyOf(e)[0] || &second.body[0] == &bodyOf(e)[0] {
		t.Fatal("the first frame did not land, or the duplicate did too")
	}
	if !bytes.Equal(bodyOf(e), bytes.Repeat([]byte{4}, n)) || !bytes.Equal(second.body, bytes.Repeat([]byte{5}, n)) {
		t.Fatal("the duplicate's bytes reached the landed buffer")
	}
}

// TestMeshCancelledExpectationNeverWritten: a frame that would have
// matched an expectation cancelled before it arrived takes the normal
// path.
func TestMeshCancelledExpectationNeverWritten(t *testing.T) {
	meshes := newTestMeshes(t, 2)
	const n = 16 << 10
	e := expectInto(t, meshes[1], 0, "answer-1", n)
	if !e.Cancel() {
		t.Fatal("an armed expectation's buffer was not handed back")
	}
	if armed := meshes[1].ArmedExpectations(); armed != 0 {
		t.Fatalf("%d expectations armed after Cancel", armed)
	}
	if err := meshes[0].Send(transport.Message{From: 0, To: 1, Payload: tagged("answer-1", n, 6)}); err != nil {
		t.Fatal(err)
	}
	if got := recvTagged(t, meshes[1]); &got.body[0] == &bodyOf(e)[0] || !bytes.Equal(bodyOf(e), make([]byte, n)) {
		t.Fatal("a cancelled expectation's buffer was written")
	}
}

// TestMeshClaimedBufferIsNotHandedBack: once a reader has begun reading a
// body into the named buffer, Cancel does not hand the buffer back, even
// after the connection ended halfway through the frame.
func TestMeshClaimedBufferIsNotHandedBack(t *testing.T) {
	meshes := newTestMeshes(t, 2)
	const n = 64 << 10
	e := expectInto(t, meshes[1], 0, "answer-1", n)
	raw := rawHandshake(t, meshes[1].Addr(), 0)
	p := tagged("answer-1", n, 8)
	msg := transport.Message{From: 0, To: 1, Class: transport.Control, Payload: p}
	kind, head, body, err := marshalBody(p)
	if err != nil {
		t.Fatal(err)
	}
	frame := encodeFrame(msg, kind, head, body)
	if _, err := raw.Write(append(frame.head, frame.body[:n/2]...)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for meshes[1].ArmedExpectations() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if meshes[1].ArmedExpectations() != 0 {
		t.Fatal("the half-written frame was not claimed")
	}
	if e.Cancel() {
		t.Fatal("Cancel handed back a buffer a reader is writing")
	}
	_ = raw.Close()
	time.Sleep(20 * time.Millisecond)
	if e.Cancel() {
		t.Fatal("Cancel handed back a buffer whose frame never finished")
	}
}
