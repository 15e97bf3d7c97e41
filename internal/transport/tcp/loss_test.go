package tcp

// Loss-report tests: a crashed peer's connection ends without a goodbye and
// a fresh dial is refused, so the receiver queues a PeerLost marker behind
// the peer's last frame. An orderly Close, a reset connection whose
// listener still answers, and a partition rule covering the pair must each
// stay silent.

import (
	"bytes"
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
		p.qmu.Lock()
		if p.conn != nil {
			_ = p.conn.Close() // a writer holding the role sees its write fail
			if !p.writing {
				p.conn = nil
			}
		}
		p.qmu.Unlock()
	}
	for c := range m.inbound {
		_ = c.Close()
	}
	m.mu.Unlock()
	m.port.Kill()
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
	// A burst of small frames, which the reader takes several per read,
	// with one frame larger than its buffer in the middle, which it reads
	// straight into the frame's body.
	const k, big = 200, 100
	frames := make([]testPayload, k)
	for i := range frames {
		frames[i] = testPayload(fmt.Sprintf("f%03d", i))
	}
	frames[big] = make(testPayload, readBuffer+1000)
	for i := range frames[big] {
		frames[big][i] = byte(i * 7)
	}
	for i, p := range frames {
		if err := meshes[0].Send(transport.Message{From: 0, To: 1, Payload: p}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	meshes[0].crash()

	for i, want := range frames {
		msg, ok := awaitMsg(t, meshes[1], 5*time.Second)
		if !ok {
			t.Fatalf("frame %d never arrived", i)
		}
		if got, isFrame := msg.Payload.(testPayload); !isFrame || !bytes.Equal(got, want) {
			t.Fatalf("delivery %d is not frame %d (%d bytes, want %d)", i, i, len(got), len(want))
		}
	}
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
		meshes[0].withRole(p, func() {
			if tc, ok := p.conn.(*net.TCPConn); ok {
				_ = tc.SetLinger(0)
			}
			meshes[0].setConn(p, nil)
		})
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

// TestMeshLossObserverSendsUnderRule: a loss report is delivered while a
// hold rule covers another pair, and the demux's lost observer sends on the
// mesh from inside that delivery, as the failure detector's suspect gossip
// does. Rank 1 holds its pair with rank 3 when rank 0 crashes: the report
// must reach the observer, and its send must return and reach rank 2.
func TestMeshLossObserverSendsUnderRule(t *testing.T) {
	meshes := newTestMeshes(t, 4)
	d := transport.NewDemux(meshes[1], 1)
	lost := make(chan int, 1)
	d.SetObservers(nil, nil, func(from int) {
		_ = meshes[1].Send(transport.Message{From: 1, To: 2, Payload: testPayload("suspect")})
		lost <- from
	})
	d.Start()
	sendN(t, meshes[0], 1, 1)
	meshes[1].SetPartition([][2]int{{1, 3}, {3, 1}}, true)
	meshes[0].crash()
	select {
	case from := <-lost:
		if from != 0 {
			t.Fatalf("loss reported for rank %d, want 0", from)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no loss report reached the observer while a rule held another pair")
	}
	msg, ok := awaitMsg(t, meshes[2], 5*time.Second)
	if p, isFrame := msg.Payload.(testPayload); !ok || !isFrame || string(p) != "suspect" {
		t.Fatalf("rank 2 got %#v (ok=%v), want the observer's frame", msg.Payload, ok)
	}
}

// awaitLoss waits for m's PeerLost marker for rank.
func awaitLoss(t *testing.T, m *Mesh, rank int) {
	t.Helper()
	msg, ok := awaitMsg(t, m, 5*time.Second)
	if _, lost := msg.Payload.(transport.PeerLost); !ok || !lost || msg.From != rank {
		t.Fatalf("got %#v from %d (ok=%v), want PeerLost from %d", msg.Payload, msg.From, ok, rank)
	}
}

// TestMeshSendAfterLossDoesNotDial: a confirmed loss marks the peer
// departed, as a goodbye does. A send to a crashed peer drops at once
// instead of redialing it for the 250 ms "reachable before" window.
func TestMeshSendAfterLossDoesNotDial(t *testing.T) {
	meshes := newTestMeshes(t, 2)
	meshes[0].ReportLosses()
	warmPair(t, meshes[0], meshes[1])
	meshes[1].crash()
	awaitLoss(t, meshes[0], 1)
	if d := timedSend(t, meshes[0], 1, "late"); d > 50*time.Millisecond {
		t.Fatalf("send to a crashed peer took %v: it redialed", d)
	}
	if got := meshes[0].Stats().MessagesDropped; got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
}

// connectDone reports whether m has no Connect to rank in flight.
func connectDone(m *Mesh, rank int) bool { return m.peer(rank).connecting.Load() == nil }

// TestMeshConnectWaitsForDepartedPeer: Connect toward a peer marked
// departed by a loss waits for the replacement's arrival, and a send
// issued meanwhile waits with it and reaches the replacement. Closing the
// stop channel instead ends the wait and drops the waiting send.
func TestMeshConnectWaitsForDepartedPeer(t *testing.T) {
	for _, stopped := range []bool{false, true} {
		meshes := newTestMeshes(t, 2)
		addrs := append([]string(nil), meshes[0].addrs...)
		meshes[0].ReportLosses()
		warmPair(t, meshes[0], meshes[1])
		meshes[1].crash()
		awaitLoss(t, meshes[0], 1)

		stop := make(chan struct{})
		meshes[0].Connect(1, stop)
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			_ = meshes[0].Send(transport.Message{From: 0, To: 1, Payload: testPayload("kept")})
		}()
		time.Sleep(100 * time.Millisecond)
		if connectDone(meshes[0], 1) {
			t.Fatal("connect to a departed peer returned before its arrival")
		}
		select {
		case <-sent:
			t.Fatal("a send to a departed peer did not wait for the pending connect")
		default:
		}
		if stopped {
			close(stop)
			<-sent
			if got := meshes[0].Stats().MessagesDropped; got != 1 {
				t.Fatalf("dropped = %d after stop, want 1", got)
			}
			continue
		}
		replacement := rebind(t, 1, addrs)
		replacement.Connect(0, nil) // the replacement's arrival
		<-sent
		expectBody(t, replacement, "kept")
		for deadline := time.Now().Add(5 * time.Second); !connectDone(meshes[0], 1); {
			if time.Now().After(deadline) {
				t.Fatal("connect still pending after the replacement arrived")
			}
			time.Sleep(time.Millisecond)
		}
		if got := meshes[0].Stats().MessagesDropped; got != 0 {
			t.Fatalf("dropped = %d, want 0", got)
		}
		close(stop)
	}
}

// TestMeshReportsProgressOnLongBody: with loss reports on, each 64 KiB of
// a long frame body counts as contact from its sender. A raw peer sends a
// 1 MiB frame in 64 KiB pieces and, after each of the first three, waits
// for the demux's recv observer for as long as a lease (ten 25 ms
// heartbeats): it must fire within each pause, before the frame completes,
// whether the body takes the normal path or lands in an expected buffer.
func TestMeshReportsProgressOnLongBody(t *testing.T) {
	const lease = 250 * time.Millisecond
	for _, landed := range []bool{false, true} {
		t.Run(map[bool]string{false: "normal", true: "landed"}[landed], func(t *testing.T) {
			lns, addrs := listenAll(t, 1)
			m, err := New(0, []string{addrs[0], "127.0.0.1:1"}, withListener(lns[0]))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(m.Close)
			d := transport.NewDemux(m, 0)
			plane := d.Plane(taggedKind)
			heard := make(chan struct{}, 64)
			d.SetObservers(func(from int) {
				if from == 1 {
					select {
					case heard <- struct{}{}:
					default:
					}
				}
			}, nil, func(int) {})
			d.Start()
			payload := tagged("answer-1", 1<<20, 5)
			if landed {
				expectInto(t, plane.(transport.Lander), 1, "answer-1", len(payload.body))
			}
			msg := transport.Message{From: 1, To: 0, Payload: payload}
			kind, head, body, err := marshalBody(payload)
			if err != nil {
				t.Fatal(err)
			}
			f := encodeFrame(msg, kind, head, body)
			full := append(f.head, f.body...)

			c := rawHandshake(t, m.Addr(), 1)
			defer c.Close()
			sent := 0
			sendTo := func(end int) {
				if _, err := c.Write(full[sent:end]); err != nil {
					t.Fatal(err)
				}
				sent = end
			}
			// Past the length prefix, the frame and payload heads: piece i
			// completes the body's i-th chunk on either path.
			start := 4 + frameHeaderLen + len(payload.tag)
			for i := 1; i <= 3; i++ {
				sendTo(start + i*progressChunk)
				select {
				case <-heard:
				case <-time.After(lease):
					t.Fatalf("no contact from the sender within a lease of its %d KiB of a 1 MiB frame", i*progressChunk>>10)
				}
			}
			sendTo(len(full))
			got := make(chan transport.Message, 1)
			go func() {
				if msg, err := plane.Endpoint(0).Recv(); err == nil {
					got <- msg
				}
			}()
			select {
			case msg := <-got:
				if p, ok := msg.Payload.(taggedPayload); !ok || !bytes.Equal(p.body, payload.body) {
					t.Fatalf("the frame arrived as %T with other bytes", msg.Payload)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the frame never arrived")
			}
		})
	}
}

// TestMeshHeldPeerLongBodyMakesNoContact: a long body from a peer a hold
// rule severs reports no progress, so a frame the rule keeps never counts
// as contact. A raw peer sends a 1 MiB frame in 64 KiB pieces under the
// rule, and the demux's recv observer must stay quiet after each of the
// first three; the frame is delivered at Heal, whether or not its answer
// was expected.
func TestMeshHeldPeerLongBodyMakesNoContact(t *testing.T) {
	for _, landed := range []bool{false, true} {
		t.Run(map[bool]string{false: "normal", true: "expected"}[landed], func(t *testing.T) {
			lns, addrs := listenAll(t, 1)
			m, err := New(0, []string{addrs[0], "127.0.0.1:1"}, withListener(lns[0]))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(m.Close)
			d := transport.NewDemux(m, 0)
			plane := d.Plane(taggedKind)
			heard := make(chan struct{}, 64)
			d.SetObservers(func(from int) {
				if from == 1 {
					select {
					case heard <- struct{}{}:
					default:
					}
				}
			}, nil, func(int) {})
			d.Start()
			m.SetPartition([][2]int{{0, 1}, {1, 0}}, true)
			payload := tagged("answer-1", 1<<20, 5)
			if landed {
				expectInto(t, plane.(transport.Lander), 1, "answer-1", len(payload.body))
			}
			msg := transport.Message{From: 1, To: 0, Payload: payload}
			kind, head, body, err := marshalBody(payload)
			if err != nil {
				t.Fatal(err)
			}
			f := encodeFrame(msg, kind, head, body)
			full := append(f.head, f.body...)

			c := rawHandshake(t, m.Addr(), 1)
			defer c.Close()
			sent := 0
			sendTo := func(end int) {
				if _, err := c.Write(full[sent:end]); err != nil {
					t.Fatal(err)
				}
				sent = end
			}
			start := 4 + frameHeaderLen + len(payload.tag)
			for i := 1; i <= 3; i++ {
				sendTo(start + i*progressChunk)
				select {
				case <-heard:
					t.Fatalf("a held peer counted as contact after %d KiB of a 1 MiB frame", i*progressChunk>>10)
				case <-time.After(100 * time.Millisecond):
				}
			}
			sendTo(len(full))
			got := make(chan transport.Message, 1)
			go func() {
				if msg, err := plane.Endpoint(0).Recv(); err == nil {
					got <- msg
				}
			}()
			select {
			case <-got:
				t.Fatal("the held frame was delivered before Heal")
			case <-time.After(200 * time.Millisecond):
			}
			m.Heal()
			select {
			case msg := <-got:
				if p, ok := msg.Payload.(taggedPayload); !ok || !bytes.Equal(p.body, payload.body) {
					t.Fatalf("the frame arrived as %T with other bytes", msg.Payload)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the held frame never arrived after Heal")
			}
		})
	}
}
