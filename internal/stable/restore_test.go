package stable

import (
	"bytes"
	"errors"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"c3/internal/member"
	"c3/internal/transport"
)

// Tests for the in-place restore: the owner's which-lines query, the
// landing of fetched shards at their offsets, the rebuild of missing ones
// and the digests that check them.

// silentNet wraps the owner's interconnect and loses which-lines queries
// to one peer: the first lose of them, or every one when lose < 0.
type silentNet struct {
	transport.Interconnect
	mu     sync.Mutex
	silent int
	lose   int
	lost   int
}

func (n *silentNet) Send(msg transport.Message) error {
	if p, ok := msg.Payload.(replPayload); ok && len(p) > 0 && p[0] == distMsgQueryLast && msg.To == n.silent {
		n.mu.Lock()
		drop := n.lose < 0 || n.lost < n.lose
		if drop {
			n.lost++
		}
		n.mu.Unlock()
		if drop {
			return nil
		}
	}
	return n.Interconnect.Send(msg)
}

// silentWorld is distWorld with the owner's which-lines queries to silent
// lost as silentNet loses them.
func silentWorld(t *testing.T, n, owner, silent, lose int, opts ...DistOption) ([]*DistStore, *silentNet) {
	t.Helper()
	nw := transport.NewNetwork(n)
	sn := &silentNet{Interconnect: nw, silent: silent, lose: lose}
	stores := make([]*DistStore, n)
	for r := range stores {
		var net transport.Interconnect = nw
		if r == owner {
			net = sn
		}
		stores[r] = NewDistStore(r, n, net, opts...)
	}
	t.Cleanup(func() {
		for _, s := range stores {
			s.Close()
		}
	})
	return stores, sn
}

// TestDistOpenStopsWaitingForSilentPeer: a restore's own which-lines query
// stops once peers have reported holders for k distinct shards of the
// line and the first re-send backoff has passed, so a silent holder of a
// data shard costs a sixteenth of the query timeout, not all of it.
func TestDistOpenStopsWaitingForSilentPeer(t *testing.T) {
	const n, owner, k, m = 8, 3, 4, 2
	holderOf, _ := member.Launch(n).ShardPlan(owner, k+m)
	stores, _ := silentWorld(t, n, owner, holderOf[0], -1,
		WithDistCodec(mustCodec(t, "rs", k, m)), WithQueryTimeout(2*time.Second))
	want := map[string][]byte{"app": testBlob(300_001, 3)}
	writeDistCommitted(t, stores[owner], owner, 1, want)
	stores[owner].wipe()

	begin := time.Now()
	got := readSections(t, stores[owner], owner, 1)
	if d := time.Since(begin); d > 500*time.Millisecond {
		t.Fatalf("Open with one silent peer took %v, want well under the 2s query timeout", d)
	}
	if !sameSections(got, want) {
		t.Fatal("restore with a silent peer returned other sections")
	}
}

// TestDistQueryResendsToSilentPeer: a peer whose which-lines query was
// lost gets it again after a fraction of the query timeout. LastCommitted
// still waits for every peer, so its answer includes the late peer's
// holdings, well before the timeout.
func TestDistQueryResendsToSilentPeer(t *testing.T) {
	const n, owner, k, m = 8, 3, 4, 2
	holderOf, _ := member.Launch(n).ShardPlan(owner, k+m)
	late := holderOf[2]
	stores, sn := silentWorld(t, n, owner, late, 1,
		WithDistCodec(mustCodec(t, "rs", k, m)), WithQueryTimeout(2*time.Second))
	writeDistCommitted(t, stores[owner], owner, 1, map[string][]byte{"app": testBlob(10_000, 4)})
	stores[owner].wipe()

	begin := time.Now()
	lines := stores[owner].queryPeers(owner, nil)
	if d := time.Since(begin); d > time.Second {
		t.Fatalf("query with one lost frame took %v, want about 2s/16", d)
	}
	sn.mu.Lock()
	lost := sn.lost
	sn.mu.Unlock()
	if lost != 1 {
		t.Fatalf("%d which-lines queries lost, want 1", lost)
	}
	rl := lines[1]
	if rl == nil || len(rl.holders[2]) != 1 || rl.holders[2][0] != late {
		t.Fatalf("merged answer %+v lacks shard 2 on the re-asked peer %d", rl, late)
	}
	if v, ok, err := stores[owner].LastCommitted(owner); err != nil || !ok || v != 1 {
		t.Fatalf("LastCommitted = %d,%v,%v; want 1,true,nil", v, ok, err)
	}
}

// dropShard deletes shard idx of (owner, version) from whichever store
// holds it: its holder lost it.
func dropShard(stores []*DistStore, owner, version, idx int) {
	for _, s := range stores {
		s.mu.Lock()
		delete(s.node.frags, replFragKey{owner: owner, version: version, idx: idx})
		s.mu.Unlock()
	}
}

// heldShard returns shard idx of (owner, version) as its holder stores it,
// and the marker that holder keeps.
func heldShard(t *testing.T, stores []*DistStore, owner, version, idx int) ([]byte, replCommitRec) {
	t.Helper()
	for _, s := range stores {
		s.mu.Lock()
		frag, ok := s.node.frags[replFragKey{owner: owner, version: version, idx: idx}]
		rec := s.node.commits[replCommitKey{owner: owner, version: version}]
		s.mu.Unlock()
		if ok {
			return frag, rec
		}
	}
	t.Fatalf("shard %d of (%d,%d) is held nowhere", idx, owner, version)
	return nil, replCommitRec{}
}

// TestRestoredSectionsAliasNoFragment: the sections a restore hands out are
// views of the one blob it landed, never of a fragment a holder stores —
// scribbling over every held fragment after Open changes nothing the
// snapshot reads, whether every data shard landed, one was rebuilt from
// parity, or the line is a dup copy, on either interconnect.
func TestRestoredSectionsAliasNoFragment(t *testing.T) {
	const n, owner = 8, 2
	worlds := map[string]func(t *testing.T, opts ...DistOption) []*DistStore{
		"memory": func(t *testing.T, opts ...DistOption) []*DistStore { return distWorld(t, n, opts...) },
		"tcp":    func(t *testing.T, opts ...DistOption) []*DistStore { return tcpDistWorld(t, n, opts...) },
	}
	cases := []struct {
		name, codec string
		k, m, drop  int // drop: a data shard lost before the restore, or -1
	}{
		{"rs-all", "rs", 4, 2, -1},
		{"rs-rebuilt", "rs", 4, 2, 1},
		{"dup", "dup", 2, 0, -1},
	}
	for wname, build := range worlds {
		for _, c := range cases {
			t.Run(wname+"/"+c.name, func(t *testing.T) {
				stores := build(t, WithDistCodec(mustCodec(t, c.codec, c.k, c.m)))
				want := map[string][]byte{"app": testBlob(200_003, 6), "mpi": []byte("tables")}
				writeDistCommitted(t, stores[owner], owner, 1, want)
				stores[owner].mu.Lock()
				stores[owner].node.local = make(map[int]*memCkpt)
				stores[owner].mu.Unlock()
				if c.drop >= 0 {
					dropShard(stores, owner, 1, c.drop)
				}
				snap, err := stores[owner].Open(owner, 1)
				if err != nil {
					t.Fatal(err)
				}
				if scribbleHeld(stores) == 0 {
					t.Fatal("no fragments held")
				}
				for name, w := range want {
					got, err := snap.ReadSection(name)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, w) {
						t.Fatalf("section %q changed when the held fragments did: it aliases one", name)
					}
				}
			})
		}
	}
}

// TestRestoreRepairsCorruptDataShard: a data shard whose fetched copy fails
// its digest is rejected, its range of the blob cleared, and the shard
// rebuilt from parity into its offset. The corruption may lie in the
// shard's bytes or in the tail shard's zero padding past the blob's end:
// padding feeds the rebuild of other shards, so it is checked too.
func TestRestoreRepairsCorruptDataShard(t *testing.T) {
	const n, owner, k, m = 8, 5, 4, 2
	for _, c := range []struct {
		name      string
		idx, lost int // the corrupted shard; a data shard lost as well, or -1
		padding   bool
	}{
		{"middle", 1, -1, false},
		{"tail-padding", k - 1, 0, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			stores, counter := countingDistWorld(t, n, owner, WithDistCodec(mustCodec(t, "rs", k, m)))
			want := map[string][]byte{"app": testBlob(100_001, 7)}
			writeDistCommitted(t, stores[owner], owner, 1, want)
			stores[owner].wipe()
			if c.lost >= 0 {
				dropShard(stores, owner, 1, c.lost)
			}
			frag, rec := heldShard(t, stores, owner, 1, c.idx)
			at := len(frag) / 2
			if c.padding {
				if pad := k*len(frag) - rec.total; pad == 0 {
					t.Fatalf("blob of %d bytes leaves the tail shard no padding", rec.total)
				}
				at = len(frag) - 1
			}
			frag[at] ^= 0x10

			before := counter.count(distMsgQueryFrag)
			if got := readSections(t, stores[owner], owner, 1); !sameSections(got, want) {
				t.Fatal("restore around a corrupt data shard returned other sections")
			}
			if sent := counter.count(distMsgQueryFrag) - before; sent <= k {
				t.Fatalf("restore sent %d fragment queries: the rejected shard was not replaced", sent)
			}
		})
	}
}

// TestRestoreAsksReportedShardsBeforeSweeping: in the same geometry, a
// restore that finds one data shard corrupt replaces it with another
// reported shard in one more query — k+1 fragment queries in all — instead
// of sweeping every peer for the rejected shard first. The restore runs
// as a node's does, LastCommitted then Open, so every holder has answered.
func TestRestoreAsksReportedShardsBeforeSweeping(t *testing.T) {
	const n, owner, k, m = 8, 5, 4, 2
	stores, counter := countingDistWorld(t, n, owner, WithDistCodec(mustCodec(t, "rs", k, m)))
	want := map[string][]byte{"app": testBlob(100_001, 7)}
	writeDistCommitted(t, stores[owner], owner, 1, want)
	stores[owner].wipe()
	frag, _ := heldShard(t, stores, owner, 1, 1)
	frag[len(frag)/2] ^= 0x10

	if v, ok, err := stores[owner].LastCommitted(owner); err != nil || !ok || v != 1 {
		t.Fatalf("LastCommitted = %d, %v, %v; want 1", v, ok, err)
	}
	before := counter.count(distMsgQueryFrag)
	if got := readSections(t, stores[owner], owner, 1); !sameSections(got, want) {
		t.Fatal("restore around a corrupt data shard returned other sections")
	}
	if sent := counter.count(distMsgQueryFrag) - before; sent != k+1 {
		t.Fatalf("restore sent %d fragment queries, want k+1 = %d", sent, k+1)
	}
}

// TestFetchFragAsksReportedHolderFirst: a sweep for one shard asks the
// peers that reported holding it before any other peer, so a live holder
// answers the first query however late it sits in member order.
func TestFetchFragAsksReportedHolderFirst(t *testing.T) {
	const n, owner, k, m = 8, 5, 4, 2
	stores, counter := countingDistWorld(t, n, owner, WithDistCodec(mustCodec(t, "rs", k, m)))
	writeDistCommitted(t, stores[owner], owner, 1, map[string][]byte{"app": testBlob(100_001, 7)})
	// The shard held by the peer that comes last in member order.
	idx, holder := -1, -1
	for i := 0; i < k+m; i++ {
		for r, s := range stores {
			s.mu.Lock()
			_, ok := s.node.frags[replFragKey{owner: owner, version: 1, idx: i}]
			s.mu.Unlock()
			if ok && r > holder {
				idx, holder = i, r
			}
		}
	}
	if last := stores[owner].peerList(); last[len(last)-1] != holder {
		t.Fatalf("holder %d of shard %d is not the last peer of %v", holder, idx, last)
	}
	_, rec := heldShard(t, stores, owner, 1, idx)
	l := newLanding(rec)
	before := counter.count(distMsgQueryFrag)
	stores[owner].fetchFrag(owner, 1, idx, []int{holder}, l)
	if l.valid != 1 {
		t.Fatalf("shard %d did not land from its holder %d", idx, holder)
	}
	if sent := counter.count(distMsgQueryFrag) - before; sent != 1 {
		t.Fatalf("sweep for shard %d sent %d fragment queries, want 1 (its reported holder)", idx, sent)
	}
}

// TestRestoreRejectsMarkerSumMismatch: a marker whose whole-blob digest
// disagrees with its per-shard digests is rejected. Every shard passes its
// own digest, so only the combined check can catch it, with every data
// shard landed or with one rebuilt.
func TestRestoreRejectsMarkerSumMismatch(t *testing.T) {
	const n, owner, k, m = 8, 1, 4, 2
	for _, lost := range []int{-1, 2} {
		stores := distWorld(t, n, WithDistCodec(mustCodec(t, "rs", k, m)))
		writeDistCommitted(t, stores[owner], owner, 1, map[string][]byte{"app": testBlob(50_001, 8)})
		stores[owner].wipe()
		if lost >= 0 {
			dropShard(stores, owner, 1, lost)
		}
		key := replCommitKey{owner: owner, version: 1}
		for _, s := range stores {
			s.mu.Lock()
			if rec, ok := s.node.commits[key]; ok {
				rec.sum ^= 1
				s.node.commits[key] = rec
			}
			s.mu.Unlock()
		}
		if _, err := stores[owner].Open(owner, 1); !errors.Is(err, ErrNotFound) {
			t.Fatalf("lost shard %d: Open with a marker sum that disagrees with its shards = %v, want ErrNotFound", lost, err)
		}
	}
}

// TestRebuildDigestsAsWritten: the rebuild's per-shard digests, taken
// stripe by stripe on each worker and chained, equal the CRC-32C of the
// rebuilt bytes in the blob and of the whole shard with its padding, on
// shards small enough for one worker and large enough for several.
func TestRebuildDigestsAsWritten(t *testing.T) {
	codec := newRSCodec(4, 2)
	for _, size := range []int{0, 5, 4096 + 3, 3<<20 + 11} {
		blob := testBlob(size, 9)
		shards, err := codec.Encode(append([]byte(nil), blob...))
		if err != nil {
			t.Fatal(err)
		}
		sz := len(shards[0])
		out := make([]byte, size, 4*sz)
		in := append([][]byte(nil), shards...)
		for d := range in[:4] {
			in[d] = nil
			if d != 0 && d != 3 { // 0 and 3 (the tail) are rebuilt
				in[d] = dataRange(out, d, sz)
				copy(in[d], shards[d])
			}
		}
		sums := make([]shardCRC, 4)
		if err := codec.rebuild(out, sz, in, sums); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, blob) {
			t.Fatalf("size %d: rebuilt blob differs", size)
		}
		for _, d := range []int{0, 3} {
			part := blobPart(out, d, sz)
			if got, want := sums[d].in, crc32.Checksum(part, castagnoli); got != want || sums[d].inLen != len(part) {
				t.Fatalf("size %d shard %d: in-blob digest %08x over %d bytes, want %08x over %d", size, d, got, sums[d].inLen, want, len(part))
			}
			if got, want := sums[d].padded(), replSum(shards[d]); got != want {
				t.Fatalf("size %d shard %d: padded digest %08x, want %08x", size, d, got, want)
			}
		}
	}
}
