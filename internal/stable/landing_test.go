package stable

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"c3/internal/member"
	"c3/internal/transport"
	"c3/internal/transport/tcp"
	"c3/internal/wire"
)

// Tests for a restore over TCP that reads each fetched data shard off the
// socket straight into its blob: the mesh lands an expected answer in the
// range the restore named, the landing checks it there, and a range a
// reader may still be writing is never part of what Open returns.

// landingSpy is the owner's interconnect: its tcp.Mesh, recording the
// expectations the store arms and the fragment answers that arrive landed
// in one. divert, when set before the store runs, takes the store's
// fragment queries it returns true for off the wire.
type landingSpy struct {
	*tcp.Mesh
	divert func(to int, query replPayload) bool

	mu     sync.Mutex
	armed  map[*byte]int // first byte of each armed body -> the peer expected to fill it
	landed map[int]int   // answers that arrived in an armed body, by sender
}

func (s *landingSpy) Expect(e *transport.Expectation) bool {
	_, body := e.Reply.WireParts()
	s.mu.Lock()
	s.armed[&body[0]] = e.From
	s.mu.Unlock()
	return s.Mesh.Expect(e)
}

func (s *landingSpy) Send(msg transport.Message) error {
	if q, ok := msg.Payload.(replPayload); ok && len(q) > 0 && q[0] == distMsgQueryFrag && s.divert != nil && s.divert(msg.To, q) {
		return nil
	}
	return s.Mesh.Send(msg)
}

func (s *landingSpy) Endpoint(rank int) transport.Port {
	return spyPort{Port: s.Mesh.Endpoint(rank), s: s}
}

func (s *landingSpy) landedFrom(peer int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.landed[peer]
}

// spyPort is the store daemon's receive port under a landingSpy.
type spyPort struct {
	transport.Port
	s *landingSpy
}

func (p spyPort) Recv() (transport.Message, error) {
	msg, err := p.Port.Recv()
	if fp, ok := msg.Payload.(fragPayload); ok && err == nil && len(fp.body) > 0 {
		p.s.mu.Lock()
		if from, ok := p.s.armed[&fp.body[0]]; ok && from == msg.From {
			p.s.landed[from]++
		}
		p.s.mu.Unlock()
	}
	return msg, err
}

// spyWorld is tcpDistWorld with the owner's store on a landingSpy.
func spyWorld(t *testing.T, n, owner int, divert func(int, replPayload) bool, opts ...DistOption) ([]*DistStore, *landingSpy) {
	t.Helper()
	var spy *landingSpy
	stores := tcpStores(t, tcpMeshes(t, n), func(r int, m *tcp.Mesh) transport.Interconnect {
		if r != owner {
			return m
		}
		spy = &landingSpy{Mesh: m, divert: divert, armed: make(map[*byte]int), landed: make(map[int]int)}
		return spy
	}, opts...)
	return stores, spy
}

// TestTCPRestoreLandsShardsInPlace: over TCP every data shard of a restore
// arrives already in the blob's range its expectation named, and the
// sections Open returns are the committed ones.
func TestTCPRestoreLandsShardsInPlace(t *testing.T) {
	const n, owner, k, m = 8, 2, 4, 2
	stores, spy := spyWorld(t, n, owner, nil, WithDistCodec(mustCodec(t, "rs", k, m)))
	want := map[string][]byte{"app": testBlob(400_009, 2), "mpi": []byte("tables")}
	writeDistCommitted(t, stores[owner], owner, 1, want)
	if got := readSections(t, stores[owner], owner, 1); !sameSections(got, want) {
		t.Fatal("restore over TCP returned other sections")
	}
	holderOf, _ := member.Launch(n).ShardPlan(owner, k+m)
	for idx := 0; idx < k; idx++ {
		if got := spy.landedFrom(holderOf[idx]); got != 1 {
			t.Errorf("data shard %d: %d answers from its holder %d landed in place, want 1", idx, got, holderOf[idx])
		}
	}
}

// TestTCPRestoreRejectsCorruptShardLandedInPlace: in
// TestRestoreRepairsCorruptDataShard's geometry over TCP, a data shard
// whose answer lands in place and fails its digest is rejected and its
// range cleared, and the line is completed from another holder's shard:
// more than k fragment queries, and the committed sections.
func TestTCPRestoreRejectsCorruptShardLandedInPlace(t *testing.T) {
	const n, owner, k, m = 8, 5, 4, 2
	var mu sync.Mutex
	queries := 0
	count := func(int, replPayload) bool {
		mu.Lock()
		queries++
		mu.Unlock()
		return false
	}
	stores, spy := spyWorld(t, n, owner, count, WithDistCodec(mustCodec(t, "rs", k, m)))
	want := map[string][]byte{"app": testBlob(100_001, 7)}
	writeDistCommitted(t, stores[owner], owner, 1, want)
	frag, _ := heldShard(t, stores, owner, 1, 1)
	frag[len(frag)/2] ^= 0x10

	if got := readSections(t, stores[owner], owner, 1); !sameSections(got, want) {
		t.Fatal("restore around a corrupt data shard returned other sections")
	}
	holderOf, _ := member.Launch(n).ShardPlan(owner, k+m)
	if got := spy.landedFrom(holderOf[1]); got != 1 {
		t.Fatalf("the corrupt shard's answer landed in place %d times, want 1", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if queries <= k {
		t.Fatalf("restore sent %d fragment queries: the rejected shard was not replaced", queries)
	}
}

// TestOfferChecksLandedShardInPlace: a data shard that already lies at
// its offset is digested there, not copied, and a corrupt one's range is
// cleared.
func TestOfferChecksLandedShardInPlace(t *testing.T) {
	const k, m = 4, 2
	blob := testBlob(100_001, 4)
	codec := newRSCodec(k, m)
	shards, err := codec.Encode(blob)
	if err != nil {
		t.Fatal(err)
	}
	rec := replCommitRec{frags: k + m, data: k, total: len(blob), sum: replSum(blob)}
	for _, s := range shards {
		rec.sums = append(rec.sums, replSum(s))
	}
	for _, corrupt := range []bool{false, true} {
		l := newLanding(rec)
		l.allocate()
		dst := dataRange(l.blob, 2, l.sz)
		copy(dst, shards[2])
		if corrupt {
			dst[7] ^= 1
		}
		before := &l.blob[0]
		if got := l.offer(2, dst); got == corrupt {
			t.Fatalf("corrupt=%v: offer = %v", corrupt, got)
		}
		if &l.blob[0] != before {
			t.Fatalf("corrupt=%v: offer moved the blob", corrupt)
		}
		switch {
		case corrupt && !bytes.Equal(dst, make([]byte, len(dst))):
			t.Fatal("a corrupt shard landed in place left its range uncleared")
		case !corrupt && !bytes.Equal(dst, shards[2]):
			t.Fatal("a valid shard landed in place changed")
		}
	}
}

// TestStalledHolderNeverWritesReturnedBlob: a holder that stops halfway
// through its answer, past the query timeout, keeps the range it was
// landing in. Open gives that blob up, completes the line in another, and
// the rest of the stalled answer, written after Open returned, changes
// nothing the snapshot reads. The holder's answer is written from a raw
// connection that handshakes as the holder.
func TestStalledHolderNeverWritesReturnedBlob(t *testing.T) {
	const n, owner, k, m = 8, 3, 4, 2
	holderOf, _ := member.Launch(n).ShardPlan(owner, k+m)
	stalled := holderOf[0]
	queried := make(chan uint64, 1)
	divert := func(to int, q replPayload) bool {
		reqID, _, _, idx, err := decodeDistQueryFrag(q)
		if to != stalled || idx != 0 || err != nil {
			return false
		}
		select {
		case queried <- reqID: // the first query to it; later ones pass
			return true
		default:
			return false
		}
	}
	stores, spy := spyWorld(t, n, owner, divert,
		WithDistCodec(mustCodec(t, "rs", k, m)), WithQueryTimeout(300*time.Millisecond))
	want := map[string][]byte{"app": testBlob(200_003, 5)}
	writeDistCommitted(t, stores[owner], owner, 1, want)
	frag, _ := heldShard(t, stores, owner, 1, 0)

	raw := rawMeshConn(t, spy.Addr(), stalled)
	release, written := make(chan struct{}), make(chan error, 1)
	go func() {
		reqID := <-queried
		resp := encodeDistRespFrag(reqID, true, frag)
		half := len(frag) / 2
		frame := append(rawFrameHead(stalled, owner, len(resp.head)+len(frag)), resp.head...)
		if _, err := raw.Write(append(frame, frag[:half]...)); err != nil {
			written <- err
			return
		}
		<-release
		_, err := raw.Write(bytes.Repeat([]byte{0xa5}, len(frag)-half))
		written <- err
	}()

	snap, err := stores[owner].Open(owner, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if armed := spy.ArmedExpectations(); armed != 0 {
		t.Fatalf("%d expectations still armed after Open", armed)
	}
	got, err := snap.ReadSection("app")
	if err != nil || !bytes.Equal(got, want["app"]) {
		t.Fatalf("Open around a stalled holder: %v, or other bytes", err)
	}
	close(release)
	if err := <-written; err != nil {
		t.Fatal(err)
	}
	// The mesh reads the rest and delivers the answer, which nobody awaits.
	deadline := time.Now().Add(2 * time.Second)
	for spy.landedFrom(stalled) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if spy.landedFrom(stalled) == 0 {
		t.Fatal("the stalled answer never landed")
	}
	if !bytes.Equal(got, want["app"]) {
		t.Fatal("the stalled holder's late bytes reached the blob Open returned")
	}
}

// TestOpenLeavesNoExpectationArmed: whether Open succeeds, waits out a
// silent holder or fails, no expectation is armed when it returns.
func TestOpenLeavesNoExpectationArmed(t *testing.T) {
	const n, owner, k, m = 8, 1, 4, 2
	holderOf, _ := member.Launch(n).ShardPlan(owner, k+m)
	for _, c := range []struct {
		name    string
		silent  int // a holder whose fragment queries are lost, or -1
		corrupt int // how many shards to corrupt on their holders
		fails   bool
	}{
		{"ok", -1, 0, false},
		{"timed-out", holderOf[1], 0, false},
		{"failed", -1, m + 1, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			silence := func(to int, _ replPayload) bool { return to == c.silent }
			stores, spy := spyWorld(t, n, owner, silence,
				WithDistCodec(mustCodec(t, "rs", k, m)), WithQueryTimeout(200*time.Millisecond))
			want := map[string][]byte{"app": testBlob(150_001, 8)}
			writeDistCommitted(t, stores[owner], owner, 1, want)
			for idx := 0; idx < c.corrupt; idx++ {
				frag, _ := heldShard(t, stores, owner, 1, idx)
				frag[0] ^= 1
			}
			snap, err := stores[owner].Open(owner, 1)
			if (err != nil) != c.fails {
				t.Fatalf("Open: %v", err)
			}
			if snap != nil {
				snap.Close()
			}
			if armed := spy.ArmedExpectations(); armed != 0 {
				t.Fatalf("%d expectations still armed after Open", armed)
			}
		})
	}
}

// rawMeshConn connects to a mesh at addr as rank from: the handshake is
// magic "C3HS" and the rank, little-endian, answered by one accept byte.
func rawMeshConn(t *testing.T, addr string, from int) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	w := wire.NewWriter(8)
	w.U32(0x43334853)
	w.U32(uint32(from))
	var reply [1]byte
	if _, err := c.Write(w.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, reply[:]); err != nil || reply[0] != 0x06 {
		t.Fatalf("handshake as rank %d: %x, %v", from, reply[0], err)
	}
	return c
}

// rawFrameHead is a mesh frame's length prefix and 34-byte header for a
// replication payload of size bytes from rank from to rank to: generation
// 0, class Control, no trace context.
func rawFrameHead(from, to, size int) []byte {
	w := wire.NewWriter(4 + 34)
	w.U32(uint32(34 + size))
	w.U64(0)
	w.U32(uint32(from))
	w.U32(uint32(to))
	w.U8(uint8(transport.Control))
	w.U8(transport.WireKindRepl)
	w.U64(0)
	w.U64(0)
	return w.Bytes()
}
