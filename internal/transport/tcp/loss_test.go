package tcp

// Loss-report tests: a crashed peer's connection ends without a goodbye and
// a fresh dial is refused, so the receiver queues a PeerLost marker behind
// the peer's last frame. An orderly Close, a reset connection whose
// listener still answers, and a partition rule covering the pair must each
// stay silent.

import (
	"fmt"
	"net"
	"testing"
	"time"

	"c3/internal/transport"
)

// crash models a SIGKILL of the mesh's process: the listener and every
// connection close at once, without a goodbye.
func (m *Mesh) crash() {
	m.down.Store(true)
	_ = m.ln.Close()
	m.mu.Lock()
	for _, p := range m.peers {
		p.mu.Lock()
		if p.conn != nil {
			_ = p.conn.Close()
			p.conn = nil
		}
		p.mu.Unlock()
	}
	for c := range m.inbound {
		_ = c.Close()
	}
	m.mu.Unlock()
	m.port.kill()
}

// sendN sends n numbered frames from -> to.
func sendN(t *testing.T, m *Mesh, to, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		msg := transport.Message{From: m.Self(), To: to, Payload: testPayload(fmt.Sprintf("f%02d", i))}
		if err := m.Send(msg); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
}

// expectFrames receives n numbered frames in order.
func expectFrames(t *testing.T, m *Mesh, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		msg, ok := awaitMsg(t, m, 5*time.Second)
		if !ok {
			t.Fatalf("frame %d never arrived", i)
		}
		if p, isFrame := msg.Payload.(testPayload); !isFrame || string(p) != fmt.Sprintf("f%02d", i) {
			t.Fatalf("delivery %d = %#v, want frame f%02d", i, msg.Payload, i)
		}
	}
}

// assertNoLoss fails if a PeerLost marker shows up within the window.
func assertNoLoss(t *testing.T, m *Mesh, window time.Duration) {
	t.Helper()
	if msg, ok := awaitMsg(t, m, window); ok {
		if _, lost := msg.Payload.(transport.PeerLost); lost {
			t.Fatalf("PeerLost from rank %d for a peer that is not dead", msg.From)
		}
		t.Fatalf("unexpected delivery %#v", msg.Payload)
	}
}

func TestMeshLossReportFollowsLastFrame(t *testing.T) {
	meshes := newTestMeshes(t, 2)
	meshes[1].ReportLosses()
	const k = 20
	sendN(t, meshes[0], 1, k)
	meshes[0].crash()

	expectFrames(t, meshes[1], k)
	msg, ok := awaitMsg(t, meshes[1], 5*time.Second)
	if !ok {
		t.Fatal("no PeerLost after the crashed peer's last frame")
	}
	if _, lost := msg.Payload.(transport.PeerLost); !lost || msg.From != 0 {
		t.Fatalf("after the last frame got %#v from %d, want PeerLost from 0", msg.Payload, msg.From)
	}
	assertNoLoss(t, meshes[1], 200*time.Millisecond)
}

func TestMeshNoLossReport(t *testing.T) {
	t.Run("orderly-close", func(t *testing.T) {
		meshes := newTestMeshes(t, 2)
		meshes[1].ReportLosses()
		sendN(t, meshes[0], 1, 3)
		meshes[0].Close() // says goodbye before its connections close
		expectFrames(t, meshes[1], 3)
		assertNoLoss(t, meshes[1], 300*time.Millisecond)
	})

	t.Run("reset-with-live-listener", func(t *testing.T) {
		meshes := newTestMeshes(t, 2)
		meshes[1].ReportLosses()
		sendN(t, meshes[0], 1, 3)
		expectFrames(t, meshes[1], 3)
		// Rank 0 resets its connection but keeps running: its listener
		// answers the confirming dial's handshake.
		p := meshes[0].peer(1)
		p.mu.Lock()
		if tc, ok := p.conn.(*net.TCPConn); ok {
			_ = tc.SetLinger(0)
		}
		_ = p.conn.Close()
		p.conn = nil
		p.mu.Unlock()
		assertNoLoss(t, meshes[1], 300*time.Millisecond)
		// The pair still works: the next send redials.
		sendN(t, meshes[0], 1, 1)
		expectFrames(t, meshes[1], 1)
	})

	t.Run("drop-partition", func(t *testing.T) {
		meshes := newTestMeshes(t, 2)
		meshes[1].ReportLosses()
		sendN(t, meshes[0], 1, 3)
		expectFrames(t, meshes[1], 3)
		// Under a blackhole rule even a real crash is not confirmed: the
		// rule, not a death, may be what cut the pair.
		setPartitionAll(meshes, [][2]int{{0, 1}, {1, 0}}, false)
		meshes[0].crash()
		assertNoLoss(t, meshes[1], 300*time.Millisecond)
	})
}
