package stable

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"c3/internal/transport"
)

func writeCommitted(t *testing.T, s Store, rank, version int, sections map[string][]byte) {
	t.Helper()
	ck, err := s.Begin(rank, version)
	if err != nil {
		t.Fatalf("Begin(%d,%d): %v", rank, version, err)
	}
	for name, data := range sections {
		if err := ck.WriteSection(name, data); err != nil {
			t.Fatalf("WriteSection(%q): %v", name, err)
		}
	}
	if err := ck.Commit(); err != nil {
		t.Fatalf("Commit(%d,%d): %v", rank, version, err)
	}
}

// TestReplicatedRoundtrip: a commit replicates over the world's network,
// and the owner reads its line back from its own memory.
func TestReplicatedRoundtrip(t *testing.T) {
	s := NewReplicatedStore(4)
	defer s.Close()
	writeCommitted(t, s, 1, 1, map[string][]byte{"app": []byte("state")})
	snap, err := s.Open(1, 1)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer snap.Close()
	if s.Reassemblies() != 0 {
		t.Fatalf("local read must not reassemble; got %d", s.Reassemblies())
	}
	if st := s.NetworkStats(); st.MessagesSent == 0 {
		t.Fatalf("replication must go over the transport; stats = %+v", st)
	}
}

// TestReplicatedRecoversAfterNodeLoss: after a node loss the owner's line
// is reassembled from its peers once, then re-hosted in its memory.
func TestReplicatedRecoversAfterNodeLoss(t *testing.T) {
	s := NewReplicatedStore(4)
	defer s.Close()
	writeCommitted(t, s, 2, 1, map[string][]byte{"app": {1, 7}})
	s.FailNode(2)
	for i := 0; i < 2; i++ {
		snap, err := s.Open(2, 1)
		if err != nil {
			t.Fatalf("open %d after loss: %v", i, err)
		}
		snap.Close()
		if s.Reassemblies() != 1 {
			t.Fatalf("open %d after loss: reassemblies = %d, want 1 (the re-open uses the re-hosted copy)", i, s.Reassemblies())
		}
	}
}

func TestReplicatedNodeLossLosesPeerHoldings(t *testing.T) {
	// In a 3-rank world, rank 0 replicates to 1 and 2. Failing both
	// neighbors (after failing 0) leaves no copy anywhere.
	s := NewReplicatedStore(3)
	defer s.Close()
	writeCommitted(t, s, 0, 1, map[string][]byte{"app": []byte("x")})
	s.FailNode(0)
	s.FailNode(1)
	s.FailNode(2)
	if _, ok, err := s.LastCommitted(0); err != nil || ok {
		t.Fatalf("triple failure must lose the line; got ok=%v err=%v", ok, err)
	}
	if _, err := s.Open(0, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Open after triple failure = %v; want ErrNotFound", err)
	}
}

func TestReplicatedSurvivesOneNeighborLoss(t *testing.T) {
	s := NewReplicatedStore(4)
	defer s.Close()
	writeCommitted(t, s, 0, 1, map[string][]byte{"app": []byte("payload")})
	s.FailNode(0) // owner's memory gone
	s.FailNode(1) // one of the two replica holders gone too
	snap, err := s.Open(0, 1)
	if err != nil {
		t.Fatalf("Open with one surviving replica: %v", err)
	}
	defer snap.Close()
	got, _ := snap.ReadSection("app")
	if string(got) != "payload" {
		t.Fatalf("got %q", got)
	}
}

func TestReplicatedDegenerateWorlds(t *testing.T) {
	// n=1: no neighbors; the store is plain local memory.
	s1 := NewReplicatedStore(1)
	defer s1.Close()
	writeCommitted(t, s1, 0, 1, map[string][]byte{"app": []byte("solo")})
	if v, ok, _ := s1.LastCommitted(0); !ok || v != 1 {
		t.Fatalf("n=1 LastCommitted = %d,%v", v, ok)
	}

	// n=2: a single replica on the one neighbor still allows recovery.
	s2 := NewReplicatedStore(2)
	defer s2.Close()
	writeCommitted(t, s2, 0, 1, map[string][]byte{"app": []byte("pair")})
	s2.FailNode(0)
	snap, err := s2.Open(0, 1)
	if err != nil {
		t.Fatalf("n=2 recovery: %v", err)
	}
	snap.Close()
}

func TestReplicatedWithLatencyModelCommitIsDurable(t *testing.T) {
	// Even with replication latency, Commit must not return before the
	// fragments are acknowledged — recovery immediately after a commit plus
	// owner failure must succeed.
	slow := transport.WithLatency(transport.ConstantLatency(2*time.Millisecond, 0))
	s := newReplicatedStore(transport.NewNetwork(4, slow))
	defer s.Close()
	writeCommitted(t, s, 1, 1, map[string][]byte{"app": []byte("durable")})
	s.FailNode(1)
	snap, err := s.Open(1, 1)
	if err != nil {
		t.Fatalf("commit returned before replication was durable: %v", err)
	}
	snap.Close()
}

// --- Erasure-codec store behavior ---

func mustCodec(t *testing.T, name string, k, m int) Codec {
	t.Helper()
	c, err := NewCodec(name, k, m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestReplicatedRSCodecSurvivesTwoLosses: with rs k=4,m=2 the line lives
// only as shards on six distinct successors; the owner plus ANY two of
// them can die and the line still reassembles byte-identically.
func TestReplicatedRSCodecSurvivesTwoLosses(t *testing.T) {
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	for pair := 0; pair < 5; pair++ {
		s := NewReplicatedStore(8, WithDistCodec(mustCodec(t, "rs", 4, 2)))
		writeCommitted(t, s, 0, 1, map[string][]byte{"app": payload})
		s.FailNode(0)        // the owner (holds nothing, but dies first)
		s.FailNode(1 + pair) // two of the six shard holders
		s.FailNode(2 + pair)
		snap, err := s.Open(0, 1)
		if err != nil {
			s.Close()
			t.Fatalf("holders %d,%d dead: %v", 1+pair, 2+pair, err)
		}
		got, err := snap.ReadSection("app")
		if err != nil || len(got) != len(payload) {
			t.Fatalf("section = %d bytes, %v", len(got), err)
		}
		for i := range got {
			if got[i] != payload[i] {
				t.Fatalf("byte %d differs after reassembly", i)
			}
		}
		snap.Close()
		s.Close()
	}
}

// TestReplicatedRSCodecThreeLossesFail: m+1 shard losses must fail cleanly.
func TestReplicatedRSCodecThreeLossesFail(t *testing.T) {
	s := NewReplicatedStore(8, WithDistCodec(mustCodec(t, "rs", 4, 2)))
	defer s.Close()
	writeCommitted(t, s, 0, 1, map[string][]byte{"app": []byte("gone")})
	s.FailNode(0)
	s.FailNode(1)
	s.FailNode(2)
	s.FailNode(3)
	if _, ok, err := s.LastCommitted(0); err != nil || ok {
		t.Fatalf("LastCommitted with 3 lost shards = ok=%v err=%v", ok, err)
	}
	if _, err := s.Open(0, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Open with 3 lost shards = %v, want ErrNotFound", err)
	}
}

// TestReplicatedXORCodecSurvivesOneLoss: k+1 single-parity coding.
func TestReplicatedXORCodecSurvivesOneLoss(t *testing.T) {
	s := NewReplicatedStore(6, WithDistCodec(mustCodec(t, "xor", 4, 1)))
	defer s.Close()
	writeCommitted(t, s, 2, 1, map[string][]byte{"app": []byte("xor-protected state")})
	s.FailNode(2) // owner
	s.FailNode(3) // one shard holder
	snap, err := s.Open(2, 1)
	if err != nil {
		t.Fatalf("Open after one shard loss: %v", err)
	}
	defer snap.Close()
	if got, _ := snap.ReadSection("app"); string(got) != "xor-protected state" {
		t.Fatalf("got %q", got)
	}
	if s.Reassemblies() != 1 {
		t.Fatalf("reassemblies = %d", s.Reassemblies())
	}
}

// TestReplicatedCodecCorruptShardRepaired: a digest-mismatched shard counts
// as lost and is repaired from parity, not concatenated into a bogus blob.
func TestReplicatedCodecCorruptShardRepaired(t *testing.T) {
	s := NewReplicatedStore(8, WithDistCodec(mustCodec(t, "rs", 4, 2)))
	defer s.Close()
	payload := []byte("erasure coding repairs corruption too, not just loss....")
	writeCommitted(t, s, 0, 1, map[string][]byte{"app": payload})

	// Flip a byte in every replica of shard 0, wherever it landed.
	corrupted := 0
	for _, node := range s.nodes {
		node.mu.Lock()
		if frag, ok := node.node.frags[replFragKey{owner: 0, version: 1, idx: 0}]; ok && len(frag) > 0 {
			frag[0] ^= 0xff
			corrupted++
		}
		node.mu.Unlock()
	}
	if corrupted == 0 {
		t.Fatal("no stored copy of shard 0 found")
	}

	s.FailNode(0)
	snap, err := s.Open(0, 1)
	if err != nil {
		t.Fatalf("Open with corrupt shard: %v", err)
	}
	defer snap.Close()
	if got, _ := snap.ReadSection("app"); string(got) != string(payload) {
		t.Fatalf("corrupt shard leaked into reassembly: %q", got)
	}
}

// TestReplicatedCodecStoredBytesRatio is the acceptance criterion: at equal
// fault tolerance (any two simultaneous losses), rs k=4,m=2 stores at most
// 0.6x the bytes per rank of dup +1/+2 full replication.
func TestReplicatedCodecStoredBytesRatio(t *testing.T) {
	payload := make([]byte, 64*1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	measure := func(codec Codec) int64 {
		s := NewReplicatedStore(8, WithDistCodec(codec))
		defer s.Close()
		for r := 0; r < 8; r++ {
			writeCommitted(t, s, r, 1, map[string][]byte{"app": payload})
		}
		return s.StoredBytes()
	}
	dup := measure(mustCodec(t, "dup", 2, 0))
	rs := measure(mustCodec(t, "rs", 4, 2))
	if rs <= 0 || dup <= 0 {
		t.Fatalf("stored bytes dup=%d rs=%d", dup, rs)
	}
	ratio := float64(rs) / float64(dup)
	t.Logf("stored bytes: dup=%d rs=%d ratio=%.3f", dup, rs, ratio)
	if ratio > 0.6 {
		t.Fatalf("rs/dup stored-bytes ratio = %.3f, want <= 0.6", ratio)
	}
}

// TestFragmentRetentionReleasesBlob: the regression the aliasing bug
// caused — after the blob's lines are retired, the memory must actually be
// reclaimable even while OTHER lines' fragments are still held. With
// aliased sub-slices each retained fragment kept its whole source blob
// live; with copies the heap returns to within a small envelope.
func TestFragmentRetentionReleasesBlob(t *testing.T) {
	const blobSize = 32 << 20
	s := NewReplicatedStore(4) // dup: peers hold full fragment sets
	defer s.Close()

	var base runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)

	big := make([]byte, blobSize)
	for i := 0; i < len(big); i += 4096 {
		big[i] = byte(i)
	}
	writeCommitted(t, s, 0, 1, map[string][]byte{"heap": big})
	big = nil
	// A later small line; retiring below it prunes version 1 everywhere.
	writeCommitted(t, s, 0, 2, map[string][]byte{"heap": []byte("tiny")})
	if err := s.Retire(0, 2); err != nil {
		t.Fatal(err)
	}
	s.settle() // the holders have applied the prune

	var after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	growth := int64(after.HeapAlloc) - int64(base.HeapAlloc)
	// Version 2 plus bookkeeping is tiny; anything near a blob copy means
	// version 1's memory is still pinned.
	if growth > blobSize/2 {
		t.Fatalf("heap grew %d bytes after retiring the big line (blob %d) — fragments pin the blob", growth, blobSize)
	}
}
