package tcp

// Posting-contract tests: a posted frame may still be queued when Send
// returns, but per-pair FIFO holds against every send before and after it,
// a Heal puts held frames ahead of later sends, the goodbye stays the
// connection's last frame, and a post that cannot be delivered is counted
// as dropped.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"c3/internal/transport"
	"c3/internal/wire"
)

// withRole runs f holding p's writer role: it waits until the role is
// free, claims it, and afterwards drains what was queued meanwhile.
func (m *Mesh) withRole(p *peerConn, f func()) {
	for {
		if quiet := p.quietChan(); quiet != nil {
			<-quiet
		}
		p.qmu.Lock()
		if !p.writing {
			m.claim(p)
			p.qmu.Unlock()
			break
		}
		p.qmu.Unlock()
	}
	f()
	m.drain(p)
}

// post sends body from m to rank as a posted message.
func post(t *testing.T, m *Mesh, to int, body string) {
	t.Helper()
	msg := transport.Message{From: m.Self(), To: to, Payload: testPayload(body), Posted: true}
	if err := m.Send(msg); err != nil {
		t.Fatalf("post %q: %v", body, err)
	}
}

// expectBodies receives len(want) frames and checks them in order.
func expectBodies(t *testing.T, m *Mesh, want []string) {
	t.Helper()
	for _, w := range want {
		expectBody(t, m, w)
	}
}

// TestMeshSendAfterHealFollowsHeldFrames: frames a hold rule buffered go
// out at Heal ahead of any send issued after it, so a Heal keeps the
// pair's FIFO order.
func TestMeshSendAfterHealFollowsHeldFrames(t *testing.T) {
	meshes := newTestMeshes(t, 2)
	warmPair(t, meshes[0], meshes[1])
	for round := 0; round < 5; round++ {
		setPartitionAll(meshes, [][2]int{{0, 1}, {1, 0}}, true)
		var want []string
		for i := 0; i < 50; i++ {
			want = append(want, fmt.Sprintf("r%d-held-%02d", round, i))
			timedSend(t, meshes[0], 1, want[i])
		}
		healAll(meshes)
		want = append(want, fmt.Sprintf("r%d-after", round))
		timedSend(t, meshes[0], 1, want[len(want)-1])
		expectBodies(t, meshes[1], want)
	}
}

// TestMeshBlockingSendFollowsPostedFrames: a blocking send after posted
// frames to the same peer is delivered after them, and returns only once
// its own frame is in the kernel.
func TestMeshBlockingSendFollowsPostedFrames(t *testing.T) {
	meshes := newTestMeshes(t, 2)
	for round := 0; round < 20; round++ {
		var want []string
		for i := 0; i < 32; i++ {
			want = append(want, fmt.Sprintf("r%d-posted-%02d", round, i))
			post(t, meshes[0], 1, want[i])
		}
		want = append(want, fmt.Sprintf("r%d-blocking", round))
		timedSend(t, meshes[0], 1, want[len(want)-1])
		expectBodies(t, meshes[1], want)
	}
	if d := meshes[0].Stats().MessagesDropped; d != 0 {
		t.Fatalf("%d frames dropped between two live meshes", d)
	}
}

// TestMeshPostedFramesInterleaveInOrder: posts and blocking sends from
// several goroutines, each to its own peer, keep every pair's order.
func TestMeshPostedFramesInterleaveInOrder(t *testing.T) {
	meshes := newTestMeshes(t, 3)
	const k = 200
	done := make(chan struct{})
	for _, to := range []int{1, 2} {
		go func(to int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < k; i++ {
				msg := transport.Message{From: 0, To: to, Payload: testPayload(fmt.Sprintf("f%03d", i)), Posted: i%5 != 4}
				if err := meshes[0].Send(msg); err != nil {
					t.Errorf("send %d to %d: %v", i, to, err)
					return
				}
			}
		}(to)
	}
	<-done
	<-done
	for _, to := range []int{1, 2} {
		for i := 0; i < k; i++ {
			msg, ok := awaitMsg(t, meshes[to], 5*time.Second)
			if !ok {
				t.Fatalf("rank %d: frame %d never arrived", to, i)
			}
			if got, want := string(msg.Payload.(testPayload)), fmt.Sprintf("f%03d", i); got != want {
				t.Fatalf("rank %d: delivery %d = %q, want %q", to, i, got, want)
			}
		}
	}
}

// TestMeshPostedFramesHeldUntilHeal: posted frames under a hold rule, and
// those still queued when the rule lands, arrive at Heal in send order,
// ahead of a send issued after the Heal.
func TestMeshPostedFramesHeldUntilHeal(t *testing.T) {
	meshes := newTestMeshes(t, 2)
	warmPair(t, meshes[0], meshes[1])
	var want []string
	for i := 0; i < 40; i++ {
		want = append(want, fmt.Sprintf("before-%02d", i))
		post(t, meshes[0], 1, want[len(want)-1])
	}
	setPartitionAll(meshes, [][2]int{{0, 1}, {1, 0}}, true)
	for i := 0; i < 40; i++ {
		want = append(want, fmt.Sprintf("held-%02d", i))
		if i == 20 {
			timedSend(t, meshes[0], 1, want[len(want)-1]) // a blocking send under the rule returns at once
			continue
		}
		post(t, meshes[0], 1, want[len(want)-1])
	}
	// Some "before" frames may have crossed before the rule; none after it.
	crossed := 0
	for {
		msg, ok := awaitMsg(t, meshes[1], 300*time.Millisecond)
		if !ok {
			break
		}
		if got := string(msg.Payload.(testPayload)); got != want[crossed] || crossed >= 40 {
			t.Fatalf("delivery %d under the rule = %q, want %q", crossed, got, want[crossed])
		}
		crossed++
	}
	healAll(meshes)
	want = append(want, "after")
	timedSend(t, meshes[0], 1, "after")
	expectBodies(t, meshes[1], want[crossed:])
	if d := meshes[0].Stats().MessagesDropped; d != 0 {
		t.Fatalf("%d frames dropped under a hold rule", d)
	}
}

// TestMeshPostDropsAtOnce: a post toward a peer that said goodbye, or a
// peer in redial backoff, is counted as dropped before Send returns.
func TestMeshPostDropsAtOnce(t *testing.T) {
	dropped := func(m *Mesh) uint64 { return m.Stats().MessagesDropped }
	t.Run("departed", func(t *testing.T) {
		meshes := newTestMeshes(t, 2)
		warmPair(t, meshes[0], meshes[1])
		meshes[1].Close()
		awaitGoodbye(t, meshes[0], 1)
		post(t, meshes[0], 1, "gone")
		if d := dropped(meshes[0]); d != 1 {
			t.Fatalf("dropped = %d after a post to a departed peer, want 1", d)
		}
	})
	t.Run("backed-off", func(t *testing.T) {
		meshes := newTestMeshes(t, 2, WithDialWindow(50*time.Millisecond))
		meshes[1].crash()
		timedSend(t, meshes[0], 1, "dial fails") // sets the redial backoff
		if d := dropped(meshes[0]); d != 1 {
			t.Fatalf("dropped = %d after a failed dial, want 1", d)
		}
		start := time.Now()
		post(t, meshes[0], 1, "backed off")
		if d := dropped(meshes[0]); d != 2 {
			t.Fatalf("dropped = %d after a post to a backed-off peer, want 2", d)
		}
		if d := time.Since(start); d > 20*time.Millisecond {
			t.Fatalf("a post to a backed-off peer took %v", d)
		}
	})
}

// fakePeer is rank 1 of a two-rank world as a bare listener: it accepts
// one dialer, answers its handshake, and records the byte stream's frames
// (their bodies, or "bye" for the goodbye) until the connection ends.
func fakePeer(t *testing.T) (addr string, frames <-chan []string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	out := make(chan []string, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			out <- nil
			return
		}
		defer c.Close()
		var pre [hsLen]byte
		if _, err := io.ReadFull(c, pre[:]); err != nil {
			out <- nil
			return
		}
		if _, err := c.Write([]byte{hsAccept}); err != nil {
			out <- nil
			return
		}
		br := bufio.NewReader(c)
		var got []string
		for {
			var lenBuf [4]byte
			if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
				out <- got
				return
			}
			body := make([]byte, binary.LittleEndian.Uint32(lenBuf[:]))
			if _, err := io.ReadFull(br, body); err != nil {
				out <- append(got, "truncated")
				return
			}
			if body[17] == transport.WireKindGoodbye {
				got = append(got, "bye")
				continue
			}
			p := wire.NewReader(body[frameHeaderLen:]).Bytes32()
			got = append(got, string(p))
		}
	}()
	return ln.Addr().String(), out
}

// TestMeshGoodbyeFollowsPostedFrames: on Shutdown the goodbye is the
// connection's last frame and never splits a batch. Every posted frame
// queued before it goes ahead of it, in order, or is counted as dropped.
func TestMeshGoodbyeFollowsPostedFrames(t *testing.T) {
	for round := 0; round < 10; round++ {
		addr, frames := fakePeer(t)
		lns, addrs := listenAll(t, 1)
		m, err := New(0, []string{addrs[0], addr}, withListener(lns[0]))
		if err != nil {
			t.Fatal(err)
		}
		timedSend(t, m, 1, "warm") // the connection is up before the posts
		const k = 500
		for i := 0; i < k; i++ {
			post(t, m, 1, fmt.Sprintf("f%03d", i))
		}
		m.Close()
		var got []string
		select {
		case got = <-frames:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: the connection never ended", round)
		}
		if len(got) < 2 || got[0] != "warm" || got[len(got)-1] != "bye" {
			t.Fatalf("round %d: the stream is not warm-up, frames, goodbye: %d frames, last %v", round, len(got), got[max(0, len(got)-3):])
		}
		got = got[1 : len(got)-1]
		for i, body := range got {
			if want := fmt.Sprintf("f%03d", i); body != want {
				t.Fatalf("round %d: frame %d of the stream = %q, want %q", round, i, body, want)
			}
		}
		if d := m.Stats().MessagesDropped; len(got)+int(d) != k {
			t.Fatalf("round %d: %d frames delivered and %d counted as dropped, of %d posted", round, len(got), d, k)
		}
	}
}

// TestMeshRulesKeepPairOrder: three goroutines post and send to two peers
// while hold and drop rules come and go at the receiving meshes. Drop rules
// lose frames, but each sender's stream to each peer arrives in send
// order: held frames are delivered ahead of later ones.
func TestMeshRulesKeepPairOrder(t *testing.T) {
	for iter := 0; iter < 5; iter++ {
		meshes := newTestMeshes(t, 3)
		stop, toggled := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(toggled)
			rng := rand.New(rand.NewSource(int64(iter)))
			for {
				select {
				case <-stop:
					meshes[1].Heal()
					meshes[2].Heal()
					return
				default:
				}
				to := 1 + rng.Intn(2)
				meshes[to].SetPartition([][2]int{{0, to}}, rng.Intn(2) == 0)
				time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
				meshes[to].Heal()
				time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
			}
		}()
		var wg sync.WaitGroup
		for s := 0; s < 3; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100*iter + s)))
				for i := 0; i < 300; i++ {
					msg := transport.Message{From: 0, To: 1 + rng.Intn(2), Payload: testPayload(fmt.Sprintf("%d-%04d", s, i)), Posted: rng.Intn(3) != 0}
					if err := meshes[0].Send(msg); err != nil {
						t.Errorf("sender %d: %v", s, err)
						return
					}
				}
			}(s)
		}
		wg.Wait()
		close(stop)
		<-toggled
		for _, to := range []int{1, 2} {
			last := map[int]int{}
			for {
				msg, ok := awaitMsg(t, meshes[to], 300*time.Millisecond)
				if !ok {
					break
				}
				var s, i int
				if _, err := fmt.Sscanf(string(msg.Payload.(testPayload)), "%d-%d", &s, &i); err != nil {
					t.Fatal(err)
				}
				if prev, seen := last[s]; seen && i <= prev {
					t.Fatalf("round %d, rank %d: sender %d's frame %d arrived after its frame %d", iter, to, s, i, prev)
				}
				last[s] = i
			}
		}
	}
}

// deafPeer is rank 1 of a two-rank world that answers one dialer's
// handshake and then never reads, so a writer with more to send than the
// socket buffers hold blocks in its write. unstick closes the connection,
// which fails that write.
func deafPeer(t *testing.T) (addr string, unstick func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conns := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		var pre [hsLen]byte
		if _, err := io.ReadFull(c, pre[:]); err == nil {
			_, _ = c.Write([]byte{hsAccept})
		}
		conns <- c
	}()
	var once sync.Once
	unstick = func() {
		once.Do(func() {
			_ = ln.Close()
			select {
			case c := <-conns:
				_ = c.Close()
			case <-time.After(time.Second):
			}
		})
	}
	t.Cleanup(unstick)
	return ln.Addr().String(), unstick
}

// TestMeshShutdownBehindStuckWrite: a writer stuck in a 64 MiB write to a
// peer that stopped reading delays Shutdown by at most goodbyeTimeout.
// Shutdown closes that connection under the writer instead of waiting for
// it, so Close returns once the write has failed.
func TestMeshShutdownBehindStuckWrite(t *testing.T) {
	addr, unstick := deafPeer(t)
	lns, addrs := listenAll(t, 1)
	m, err := New(0, []string{addrs[0], addr}, withListener(lns[0]))
	if err != nil {
		t.Fatal(err)
	}
	big := make(splitPayload, 64<<20)
	if err := m.Send(transport.Message{From: 0, To: 1, Class: transport.Data, Payload: big, Posted: true}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // the writer dials, fills the socket buffers and blocks
	if p := m.peer(1); p.quietChan() == nil {
		t.Fatal("the writer finished a 64 MiB write to a peer that never reads")
	}
	const bound = goodbyeTimeout + time.Second
	start := time.Now()
	shut := make(chan struct{})
	go func() {
		m.Shutdown()
		close(shut)
	}()
	select {
	case <-shut:
	case <-time.After(bound):
		unstick()
		<-shut
		t.Fatalf("Shutdown still blocked %v behind a stuck write", bound)
	}
	t.Logf("Shutdown returned after %v", time.Since(start))
	closed := make(chan struct{})
	go func() {
		m.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		unstick()
		<-closed
		t.Fatal("Close still blocked 5s after Shutdown closed the stuck connection")
	}
}
