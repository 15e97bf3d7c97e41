package tcp

// Tests of an inbound connection's reader: the poll it runs before parking
// after an MPI frame (pollConn), and the exits of its read loop (a foreign
// or stalled dialer, a corrupt length prefix).

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"syscall"
	"testing"
	"time"

	"c3/internal/mpi"
	"c3/internal/transport"
	"c3/internal/wire"
)

// sendEnvelope sends one MPI-plane frame, tagged tag, from m to rank to.
func sendEnvelope(t testing.TB, m *Mesh, to, tag int) {
	t.Helper()
	msg := transport.Message{From: m.Self(), To: to, Payload: &mpi.Envelope{Tag: tag, Data: []byte("env")}}
	if err := m.Send(msg); err != nil {
		t.Fatalf("send envelope %d: %v", tag, err)
	}
}

// expectEnvelope receives one message and checks that it is the envelope
// tagged tag. It spins on the port instead of sleeping between looks, so
// it returns within microseconds of the delivery, while the reader that
// delivered it is still polling.
func expectEnvelope(t testing.TB, m *Mesh, tag int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		msg, ok, err := m.port.TryRecv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if ok {
			if e, isEnv := msg.Payload.(*mpi.Envelope); !isEnv || e.Tag != tag {
				t.Fatalf("got %#v, want the envelope tagged %d", msg.Payload, tag)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("envelope %d never arrived", tag)
		}
	}
}

// withProcs runs the rest of the test at GOMAXPROCS n. Readers poll only
// with more than one P, so a test of the poll sets 2 whatever the host.
func withProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// awaitPolls waits until m's readers have begun want polls.
func awaitPolls(t *testing.T, m *Mesh, want uint64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); m.polls.Load() < want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("readers began %d polls, want %d", m.polls.Load(), want)
		}
	}
}

// TestMeshFrameAfterPollBudgetArrives: a frame that arrives long after the
// reader's poll gave up is still delivered. The reader fell back to the
// blocking read, which the netpoller wakes.
func TestMeshFrameAfterPollBudgetArrives(t *testing.T) {
	withProcs(t, 2)
	meshes := newTestMeshes(t, 2)
	sendEnvelope(t, meshes[0], 1, 1)
	expectEnvelope(t, meshes[1], 1)
	awaitPolls(t, meshes[1], 1)
	time.Sleep(200 * pollBudget)
	sendEnvelope(t, meshes[0], 1, 2)
	expectEnvelope(t, meshes[1], 2)
}

// TestMeshIdleConnectionStopsPolling: a reader polls after an MPI frame only
// while its previous wait ended within the budget. Across idle gaps it
// polls once, after the first frame, and parks at once after every later
// one. Frames of other planes never start a poll.
func TestMeshIdleConnectionStopsPolling(t *testing.T) {
	withProcs(t, 2)
	meshes := newTestMeshes(t, 2)
	for i := 0; i < 3; i++ {
		sendN(t, meshes[0], 1, 1)
		expectFrames(t, meshes[1], 1)
		time.Sleep(100 * pollBudget)
	}
	if got := meshes[1].polls.Load(); got != 0 {
		t.Fatalf("frames of another plane started %d polls", got)
	}
	for i := 0; i < 5; i++ {
		sendEnvelope(t, meshes[0], 1, i)
		expectEnvelope(t, meshes[1], i)
		time.Sleep(100 * pollBudget) // the connection is idle
	}
	if got := meshes[1].polls.Load(); got != 1 {
		t.Fatalf("the reader polled %d times across 5 idle gaps, want 1", got)
	}
}

// TestMeshPollsOnlyAtAnEmptyBuffer: an MPI frame whose successor is
// already buffered starts no poll, and neither does the read that fetches
// the rest of that successor's body. Both frames go out in one write.
func TestMeshPollsOnlyAtAnEmptyBuffer(t *testing.T) {
	withProcs(t, 2)
	meshes := newTestMeshes(t, 2)
	conn := rawHandshake(t, meshes[1].Addr(), 0)
	defer conn.Close()
	var stream []byte
	for _, p := range []any{&mpi.Envelope{Tag: 1, Data: []byte("env")}, make(testPayload, 1<<20)} {
		kind, head, body, err := marshalBody(p)
		if err != nil {
			t.Fatal(err)
		}
		f := encodeFrame(transport.Message{From: 0, To: 1, Payload: p}, kind, head, body)
		stream = append(append(stream, f.head...), f.body...)
	}
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	expectEnvelope(t, meshes[1], 1)
	if msg, ok := awaitMsg(t, meshes[1], 5*time.Second); !ok || len(msg.Payload.(testPayload)) != 1<<20 {
		t.Fatalf("the bulk frame behind the envelope: got %T (ok=%v)", msg.Payload, ok)
	}
	if got := meshes[1].polls.Load(); got != 0 {
		t.Fatalf("the reader polled %d times with the next frame buffered", got)
	}
}

// TestMeshSingleProcessorNeverPolls: with one P, a reader parks at once
// after an MPI frame too. Its poll could not overlap the goroutine that
// answers, and it would keep the other readers from the netpoller.
func TestMeshSingleProcessorNeverPolls(t *testing.T) {
	withProcs(t, 1)
	meshes := newTestMeshes(t, 2)
	for i := 0; i < 3; i++ {
		sendEnvelope(t, meshes[1], 0, i)
		expectEnvelope(t, meshes[0], i)
		sendEnvelope(t, meshes[0], 1, i)
		expectEnvelope(t, meshes[1], i)
	}
	if got := meshes[0].polls.Load() + meshes[1].polls.Load(); got != 0 {
		t.Fatalf("readers polled %d times with one P", got)
	}
}

// TestMeshClosesWhileReaderPolls: Close, and Shutdown with the readers'
// exit, return promptly when they catch a reader in its poll.
func TestMeshClosesWhileReaderPolls(t *testing.T) {
	for _, c := range []struct {
		name string
		stop func(m *Mesh)
	}{
		{"Close", (*Mesh).Close},
		{"Shutdown", func(m *Mesh) { m.Shutdown(); m.wg.Wait() }},
	} {
		t.Run(c.name, func(t *testing.T) {
			withProcs(t, 2)
			var polls uint64
			for i := 0; i < 10; i++ {
				meshes := newTestMeshes(t, 2)
				sendEnvelope(t, meshes[0], 1, i)
				expectEnvelope(t, meshes[1], i) // the reader now polls for up to pollBudget
				start := time.Now()
				c.stop(meshes[1])
				if d := time.Since(start); d > time.Second {
					t.Fatalf("%s took %v with a polling reader", c.name, d)
				}
				polls += meshes[1].polls.Load()
			}
			if polls == 0 {
				t.Fatal("no reader polled: the test caught none in its poll")
			}
		})
	}
}

// TestMeshLossReportFollowsPolledFrame: a crashed peer's FIN that the
// reader's poll reads, right after the peer's last MPI frame, ends the
// connection as the blocking read would: the PeerLost marker follows the
// last frame.
func TestMeshLossReportFollowsPolledFrame(t *testing.T) {
	withProcs(t, 2)
	meshes := newTestMeshes(t, 2)
	meshes[1].ReportLosses()
	const k = 20
	for i := 0; i < k; i++ {
		sendEnvelope(t, meshes[0], 1, i)
	}
	meshes[0].crash()
	for i := 0; i < k; i++ {
		expectEnvelope(t, meshes[1], i)
	}
	awaitLoss(t, meshes[1], 0)
	if meshes[1].polls.Load() == 0 {
		t.Fatal("the reader never polled after the last frame")
	}
	assertNoLoss(t, meshes[1], 200*time.Millisecond)
}

// TestMeshRoundTripAllocations: a 64 B MPI round trip between two meshes
// allocates what it did before readers polled: the poll's retry closure is
// made once per connection, so a read allocates nothing. The count is the
// difference between runs of 2k and k round trips, so what a run costs
// once cancels out.
func TestMeshRoundTripAllocations(t *testing.T) {
	withProcs(t, 2)
	// Per round trip, both sides, as counted before readers polled; a
	// read that allocated would add two.
	const k, maxAllocs = 500, 10
	meshes := newTestMeshes(t, 2)
	ping := &mpi.Envelope{Tag: 1, Data: make([]byte, 64)}
	pong := &mpi.Envelope{Tag: 2, Data: make([]byte, 64)}
	client, server := meshes[0].Endpoint(0), meshes[1].Endpoint(1)
	roundTrips := func(n int) {
		echoed := make(chan error, 1)
		go func() {
			for i := 0; i < n; i++ {
				if _, err := server.Recv(); err != nil {
					echoed <- err
					return
				}
				if err := meshes[1].Send(transport.Message{From: 1, To: 0, Payload: pong}); err != nil {
					echoed <- err
					return
				}
			}
			echoed <- nil
		}()
		for i := 0; i < n; i++ {
			if err := meshes[0].Send(transport.Message{From: 0, To: 1, Payload: ping}); err != nil {
				t.Fatal(err)
			}
			if _, err := client.Recv(); err != nil {
				t.Fatal(err)
			}
		}
		if err := <-echoed; err != nil {
			t.Fatal(err)
		}
	}
	mallocs := func(n int) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		roundTrips(n)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	roundTrips(100) // both connections up, both readers' buffers made
	if per := float64(mallocs(2*k)-mallocs(k)) / k; per > maxAllocs+0.5 {
		t.Fatalf("a 64 B round trip allocates %.2f objects, want at most %d", per, maxAllocs)
	}
}

// readEnd reads from c until it fails and returns the error and how many
// bytes came before it.
func readEnd(t *testing.T, c net.Conn, within time.Duration) (int, error) {
	t.Helper()
	_ = c.SetReadDeadline(time.Now().Add(within))
	n, err := io.Copy(io.Discard, c)
	if err == nil {
		err = io.EOF
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("the mesh kept the connection open for %v", within)
	}
	return int(n), err
}

// TestMeshDropsForeignDialer: a dialer whose announcement is not a peer's
// (wrong magic, a rank outside the world, the mesh's own rank) is dropped
// without a reply and counts as no arrival.
func TestMeshDropsForeignDialer(t *testing.T) {
	meshes := newTestMeshes(t, 2)
	for _, c := range []struct {
		name        string
		magic, rank uint32
	}{
		{"bad magic", hsMagic ^ 1, 0},
		{"rank outside the world", hsMagic, 2},
		{"own rank", hsMagic, 1},
	} {
		conn, err := net.Dial("tcp", meshes[1].Addr())
		if err != nil {
			t.Fatal(err)
		}
		w := wire.NewWriter(hsLen)
		w.U32(c.magic)
		w.U32(c.rank)
		if _, err := conn.Write(w.Bytes()); err != nil {
			t.Fatal(err)
		}
		n, _ := readEnd(t, conn, 5*time.Second)
		_ = conn.Close()
		if n != 0 {
			t.Fatalf("%s: the mesh replied with %d bytes", c.name, n)
		}
	}
	if got := meshes[1].peer(0).arrivals.Load(); got != 0 {
		t.Fatalf("foreign dialers counted as %d arrivals of rank 0", got)
	}
}

// TestMeshDropsStalledHandshake: a dialer that sends half its announcement
// and stalls is dropped once hsTimeout has passed, without a reply.
func TestMeshDropsStalledHandshake(t *testing.T) {
	meshes := newTestMeshes(t, 2)
	conn, err := net.Dial("tcp", meshes[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var half [hsLen / 2]byte
	binary.LittleEndian.PutUint32(half[:], hsMagic)
	start := time.Now()
	if _, err := conn.Write(half[:]); err != nil {
		t.Fatal(err)
	}
	n, _ := readEnd(t, conn, hsTimeout+5*time.Second)
	if d := time.Since(start); d < hsTimeout-100*time.Millisecond {
		t.Fatalf("a stalled handshake was dropped after %v, before hsTimeout (%v)", d, hsTimeout)
	}
	if n != 0 {
		t.Fatalf("the mesh replied with %d bytes to half an announcement", n)
	}
}

// TestMeshDropsCorruptLengthPrefix: a length prefix shorter than a frame
// header or longer than maxFrame drops the connection without allocating
// the body and without a PeerLost, though the claimed peer's process is
// gone. A connection of the same peer that simply ends is reported, so
// the silence is the prefix's doing.
func TestMeshDropsCorruptLengthPrefix(t *testing.T) {
	lns, addrs := listenAll(t, 2)
	_ = lns[0].Close() // rank 0's process is gone: its address refuses
	m, err := New(1, addrs, withListener(lns[1]))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.ReportLosses()
	for _, n := range []uint32{frameHeaderLen - 1, maxFrame + 1, 1<<32 - 1} {
		conn := rawHandshake(t, m.Addr(), 0)
		var prefix [4]byte
		binary.LittleEndian.PutUint32(prefix[:], n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := conn.Write(prefix[:]); err != nil {
			t.Fatal(err)
		}
		_, err := readEnd(t, conn, 5*time.Second)
		runtime.ReadMemStats(&after)
		_ = conn.Close()
		if err != io.EOF && !errors.Is(err, syscall.ECONNRESET) {
			t.Fatalf("prefix %d: connection ended with %v", n, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("prefix %d: %d bytes allocated while the mesh dropped the connection", n, grew)
		}
		assertNoLoss(t, m, 200*time.Millisecond)
	}
	_ = rawHandshake(t, m.Addr(), 0).Close()
	awaitLoss(t, m, 0)
}
