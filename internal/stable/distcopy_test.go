package stable

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"c3/internal/member"
	"c3/internal/transport"
)

// Tests for DistStore's one-copy-per-layer path: WriteSection's copy is the
// flatten into the replication blob, a dup commit keeps that blob as its
// local copy, and a restore fetches the k shards it needs at once from the
// holders that reported them.

// countingNet wraps one store's interconnect and counts the replication
// messages it sends, by kind. When dropTo is set, the first fragment query
// to that rank kills it and every fragment query to it is lost: the holder
// died after answering the restore's which-lines query but before its
// fragment was fetched.
type countingNet struct {
	transport.Interconnect
	mu     sync.Mutex
	sent   map[uint8]int
	dropTo int // -1: none
}

func (n *countingNet) Send(msg transport.Message) error {
	if p, ok := msg.Payload.(replPayload); ok && len(p) > 0 {
		n.mu.Lock()
		n.sent[p[0]]++
		drop := p[0] == distMsgQueryFrag && msg.To == n.dropTo
		n.mu.Unlock()
		if drop {
			n.Interconnect.Kill(msg.To)
			return nil
		}
	}
	return n.Interconnect.Send(msg)
}

func (n *countingNet) count(kind uint8) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sent[kind]
}

// countingDistWorld is distWorld with the owner's interconnect wrapped.
func countingDistWorld(t *testing.T, n, owner int, opts ...DistOption) ([]*DistStore, *countingNet) {
	t.Helper()
	nw := transport.NewNetwork(n)
	counter := &countingNet{Interconnect: nw, sent: make(map[uint8]int), dropTo: -1}
	stores := make([]*DistStore, n)
	for r := range stores {
		var net transport.Interconnect = nw
		if r == owner {
			net = counter
		}
		stores[r] = NewDistStore(r, n, net, opts...)
	}
	t.Cleanup(func() {
		for _, s := range stores {
			s.Close()
		}
	})
	return stores, counter
}

func readSections(t *testing.T, s Store, rank, version int) map[string][]byte {
	t.Helper()
	snap, err := s.Open(rank, version)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer snap.Close()
	names, err := snap.Sections()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(names))
	for _, name := range names {
		if out[name], err = snap.ReadSection(name); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func sameSections(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for name, data := range a {
		if other, ok := b[name]; !ok || !bytes.Equal(data, other) {
			return false
		}
	}
	return true
}

// TestDistWriteSectionTwiceKeepsSecond: a section written twice is held in
// the handle's blob once, with its second content.
func TestDistWriteSectionTwiceKeepsSecond(t *testing.T) {
	stores := distWorld(t, 4)
	ck, err := stores[1].Begin(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	first, second, other := testBlob(5000, 1), testBlob(700, 2), []byte("other")
	for _, w := range []struct {
		name string
		data []byte
	}{{"app", first}, {"mpi", other}, {"app", second}} {
		if err := ck.WriteSection(w.name, w.data); err != nil {
			t.Fatal(err)
		}
	}
	// Count, then (name, length, bytes) for each section once.
	h := ck.(*distHandle)
	if want := 4 + (4 + len("mpi") + 4 + len(other)) + (4 + len("app") + 4 + len(second)); h.blob.Len() != want {
		t.Fatalf("blob is %d bytes after a rewrite, want %d: the first content is still in it", h.blob.Len(), want)
	}
}

// TestDistSectionOrderIrrelevant: the blob holds sections in the order
// they were written, and every order reassembles the same line, with a
// replica code and an erasure code alike.
func TestDistSectionOrderIrrelevant(t *testing.T) {
	sections := map[string][]byte{
		"app": testBlob(9000, 3), "mpi": []byte("tables"), "early": {}, "late": {1, 2, 3}, "results": testBlob(100, 4),
	}
	orders := [][]string{
		{"app", "mpi", "early", "late", "results"},
		{"results", "late", "early", "mpi", "app"},
		{"early", "app", "results", "mpi", "late"},
	}
	for _, codec := range []string{"dup", "rs"} {
		for i, order := range orders {
			t.Run(fmt.Sprintf("%s/%d", codec, i), func(t *testing.T) {
				k, m := 2, 0
				if codec == "rs" {
					k, m = 3, 2
				}
				stores := distWorld(t, 6, WithDistCodec(mustCodec(t, codec, k, m)))
				ck, err := stores[2].Begin(2, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, name := range order {
					if err := ck.WriteSection(name, sections[name]); err != nil {
						t.Fatal(err)
					}
				}
				if err := ck.Commit(); err != nil {
					t.Fatal(err)
				}
				stores[2].wipe()
				if got := readSections(t, stores[2], 2, 1); !sameSections(got, sections) {
					t.Fatalf("order %v reassembled other sections", order)
				}
			})
		}
	}
}

// TestDistRestoreFetchesKShardsAtOnce: on an 8-node rs 4+2 world with every
// holder live, the which-lines query names the real holders, and a restore
// sends exactly k fragment queries — one per needed shard, to its holder.
func TestDistRestoreFetchesKShardsAtOnce(t *testing.T) {
	const n, owner, k, m = 8, 3, 4, 2
	stores, counter := countingDistWorld(t, n, owner, WithDistCodec(mustCodec(t, "rs", k, m)))
	want := map[string][]byte{"app": testBlob(1<<20+5, 7), "mpi": []byte("tables")}
	writeDistCommitted(t, stores[owner], owner, 1, want)
	stores[owner].wipe()

	holderOf, _ := member.Launch(n).ShardPlan(owner, k+m)
	rl := stores[owner].queryPeers(owner, nil)[1]
	if rl == nil {
		t.Fatal("no peer reported the line")
	}
	for idx := 0; idx < k+m; idx++ {
		if hs := rl.holders[idx]; len(hs) != 1 || hs[0] != holderOf[idx] {
			t.Fatalf("shard %d: reported holders %v, placed on %d", idx, hs, holderOf[idx])
		}
	}

	before := counter.count(distMsgQueryFrag)
	if got := readSections(t, stores[owner], owner, 1); !sameSections(got, want) {
		t.Fatal("restore returned other sections")
	}
	if sent := counter.count(distMsgQueryFrag) - before; sent != k {
		t.Fatalf("restore sent %d fragment queries, want k = %d", sent, k)
	}
}

// TestDistRestoreSweepsForLostHolder: a holder that reported its shard
// dies before the fetch reaches it; the restore sweeps for a replacement
// shard and still reassembles the line.
func TestDistRestoreSweepsForLostHolder(t *testing.T) {
	const n, owner, k, m = 8, 3, 4, 2
	stores, counter := countingDistWorld(t, n, owner, WithDistCodec(mustCodec(t, "rs", k, m)),
		WithQueryTimeout(150*time.Millisecond))
	want := map[string][]byte{"app": testBlob(300_001, 8)}
	writeDistCommitted(t, stores[owner], owner, 1, want)
	stores[owner].wipe()

	holderOf, _ := member.Launch(n).ShardPlan(owner, k+m)
	counter.mu.Lock()
	counter.dropTo = holderOf[0] // a shard the first round asks for
	counter.mu.Unlock()
	if got := readSections(t, stores[owner], owner, 1); !sameSections(got, want) {
		t.Fatal("restore with a holder lost mid-fetch returned other sections")
	}
	if sent := counter.count(distMsgQueryFrag); sent <= k {
		t.Fatalf("restore sent %d fragment queries: the lost shard was not swept for", sent)
	}
}

// TestDistRestoreQueriesPeersOnce: a restore — LastCommitted, Truncate to
// the line the world agreed on, then Open — asks the peers what they hold
// once: n-1 query-last frames, not a round per call.
func TestDistRestoreQueriesPeersOnce(t *testing.T) {
	const n, owner = 8, 3
	stores, counter := countingDistWorld(t, n, owner, WithDistCodec(mustCodec(t, "rs", 4, 2)))
	want := map[string][]byte{"app": testBlob(100_003, 5)}
	writeDistCommitted(t, stores[owner], owner, 1, want)
	writeDistCommitted(t, stores[owner], owner, 2, map[string][]byte{"app": []byte("newer")})
	stores[owner].wipe()

	before := counter.count(distMsgQueryLast)
	if v, ok, err := stores[owner].LastCommitted(owner); err != nil || !ok || v != 2 {
		t.Fatalf("LastCommitted = %d,%v,%v; want 2,true,nil", v, ok, err)
	}
	// Another rank has no line 2, so the world agrees on line 1.
	if err := stores[owner].Truncate(owner, 1); err != nil {
		t.Fatal(err)
	}
	if got := readSections(t, stores[owner], owner, 1); !sameSections(got, want) {
		t.Fatal("restore returned other sections")
	}
	if sent := counter.count(distMsgQueryLast) - before; sent != n-1 {
		t.Fatalf("restore sent %d query-last frames, want n-1 = %d", sent, n-1)
	}
}

// TestParityReassemblyOwnsItsBytes: a line reassembled through the
// cross-group parity shard shares no memory with any fragment a store
// holds — scribbling over every held fragment afterwards changes nothing
// the owner reads back, whether FailNode or a process restart lost the
// owner's group.
func TestParityReassemblyOwnsItsBytes(t *testing.T) {
	const n, g, owner = 10, 5, 1
	want := map[string][]byte{"app": testBlob(8_000, 9), "mpi": []byte("tables")}
	rs := mustCodec(t, "rs", 3, 1)
	// Each world returns the owner's store after the loss and a function
	// that scribbles over every fragment of the line a store holds.
	worlds := map[string]func(t *testing.T) (Store, func() int){
		"replicated": func(t *testing.T) (Store, func() int) {
			s := NewReplicatedStore(n, WithDistCodec(rs), WithDistGroupSize(g))
			t.Cleanup(s.Close)
			writeCommitted(t, s, owner, 1, want)
			for r := 0; r < g; r++ { // group 0 dies whole
				s.FailNode(r)
			}
			return s, func() int { return scribbleHeld(s.nodes) }
		},
		"dist": func(t *testing.T) (Store, func() int) {
			stores := distWorld(t, n, WithDistCodec(rs), WithDistGroupSize(g))
			writeDistCommitted(t, stores[owner], owner, 1, want)
			for r := 0; r < g; r++ {
				stores[r].wipe()
			}
			return stores[owner], func() int { return scribbleHeld(stores) }
		},
	}
	for name, build := range worlds {
		t.Run(name, func(t *testing.T) {
			store, scribbleLine := build(t)
			if got := readSections(t, store, owner, 1); !sameSections(got, want) {
				t.Fatal("parity reassembly returned other sections")
			}
			if scribbleLine() == 0 {
				t.Fatal("no fragments of the line held after the group loss")
			}
			if got := readSections(t, store, owner, 1); !sameSections(got, want) {
				t.Fatal("the re-installed line changed when held fragments did: it aliases one")
			}
		})
	}
}

// scribbleHeld scribbles over every fragment the stores hold and returns
// how many there were.
func scribbleHeld(stores []*DistStore) (held int) {
	for _, s := range stores {
		s.mu.Lock()
		for _, frag := range s.node.frags {
			scribble(frag)
			held++
		}
		s.mu.Unlock()
	}
	return held
}
