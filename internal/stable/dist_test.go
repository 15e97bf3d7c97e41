package stable

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// distWorld builds an in-process world of n DistStores over one in-memory
// network — the single-process stand-in for n processes on a TCP mesh —
// and returns its nodes.
func distWorld(t *testing.T, n int, opts ...DistOption) []*DistStore {
	t.Helper()
	s := NewReplicatedStore(n, opts...)
	t.Cleanup(s.Close)
	return s.nodes
}

func writeDistCommitted(t *testing.T, s *DistStore, rank, version int, sections map[string][]byte) {
	t.Helper()
	ck, err := s.Begin(rank, version)
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	for name, data := range sections {
		if err := ck.WriteSection(name, data); err != nil {
			t.Fatalf("WriteSection: %v", err)
		}
	}
	if err := ck.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func TestDistStoreCommitAndLocalRead(t *testing.T) {
	stores := distWorld(t, 4)
	sections := map[string][]byte{"app": []byte("state-1"), "mpi": []byte("tables")}
	writeDistCommitted(t, stores[1], 1, 1, sections)

	v, ok, err := stores[1].LastCommitted(1)
	if err != nil || !ok || v != 1 {
		t.Fatalf("LastCommitted = %d,%v,%v; want 1,true,nil", v, ok, err)
	}
	snap, err := stores[1].Open(1, 1)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer snap.Close()
	got, err := snap.ReadSection("app")
	if err != nil || !bytes.Equal(got, sections["app"]) {
		t.Fatalf("ReadSection = %q, %v", got, err)
	}
	if r := stores[1].Reassemblies(); r != 0 {
		t.Fatalf("local read counted %d reassemblies", r)
	}
}

// TestDistStoreRecoversAfterRestart models the real lifecycle on one
// network: the owner's replacement is a brand-new DistStore with empty
// memory, while peers retain theirs.
func TestDistStoreRecoversAfterRestart(t *testing.T) {
	stores := distWorld(t, 4)
	sections := map[string][]byte{"app": []byte("the quick brown fox"), "late": {1, 2, 3}}
	writeDistCommitted(t, stores[1], 1, 1, sections)

	// The owner's memory is wiped in place: the in-memory analogue of the
	// process dying and a replacement starting empty.
	s1 := stores[1]
	s1.wipe()

	v, ok, err := s1.LastCommitted(1)
	if err != nil {
		t.Fatalf("LastCommitted: %v", err)
	}
	if !ok || v != 1 {
		t.Fatalf("LastCommitted = %d,%v; want 1,true (from peers)", v, ok)
	}
	snap, err := s1.Open(1, 1)
	if err != nil {
		t.Fatalf("Open after wipe: %v", err)
	}
	defer snap.Close()
	got, err := snap.ReadSection("app")
	if err != nil || !bytes.Equal(got, sections["app"]) {
		t.Fatalf("reassembled section = %q, %v", got, err)
	}
	if r := s1.Reassemblies(); r != 1 {
		t.Fatalf("Reassemblies = %d, want 1", r)
	}
}

func TestDistStoreTruncatePrunesPeers(t *testing.T) {
	stores := distWorld(t, 4)
	writeDistCommitted(t, stores[2], 2, 1, map[string][]byte{"a": {1}})
	writeDistCommitted(t, stores[2], 2, 2, map[string][]byte{"a": {2}})
	writeDistCommitted(t, stores[2], 2, 3, map[string][]byte{"a": {3}})

	if err := stores[2].Truncate(2, 1); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	// Prune messages are async; wait for the peers to apply them.
	deadline := time.Now().Add(2 * time.Second)
	for {
		stores[3].mu.Lock()
		_, has2 := stores[3].node.commits[replCommitKey{owner: 2, version: 2}]
		_, has3 := stores[3].node.commits[replCommitKey{owner: 2, version: 3}]
		stores[3].mu.Unlock()
		if !has2 && !has3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("peers did not apply the truncate")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// After wiping the owner, only version 1 must be recoverable.
	s2 := stores[2]
	s2.wipe()
	v, ok, err := s2.LastCommitted(2)
	if err != nil || !ok || v != 1 {
		t.Fatalf("LastCommitted after truncate = %d,%v,%v; want 1,true,nil", v, ok, err)
	}
}

func TestDistStoreCommitExcusesDeadNeighbor(t *testing.T) {
	stores := distWorld(t, 3, WithAckTimeout(200*time.Millisecond))
	// Kill rank 1's endpoint so its daemon never acks: rank 0's commit
	// replicates to ranks 1 and 2 and must not block forever.
	stores[1].net.Kill(1)

	start := time.Now()
	writeDistCommitted(t, stores[0], 0, 1, map[string][]byte{"a": {9}})
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("commit blocked %v despite ack timeout", d)
	}
	v, ok, _ := stores[0].LastCommitted(0)
	if !ok || v != 1 {
		t.Fatalf("LastCommitted = %d,%v after excused commit", v, ok)
	}
}

// TestDistStoreEpochReleasesBlockedCommit: a commit stuck waiting for a
// dead neighbor's acknowledgment must be released the moment the recovery
// epoch advances (the detector's agreement), long before the ack timeout.
func TestDistStoreEpochReleasesBlockedCommit(t *testing.T) {
	stores := distWorld(t, 3, WithAckTimeout(time.Hour))
	stores[1].net.Kill(1) // rank 1 is dead: it will never ack

	released := make(chan time.Duration, 1)
	start := time.Now()
	go func() {
		writeDistCommitted(t, stores[0], 0, 1, map[string][]byte{"a": {7}})
		released <- time.Since(start)
	}()
	time.Sleep(100 * time.Millisecond)
	select {
	case d := <-released:
		t.Fatalf("commit returned after %v without an epoch advance (rank 2 alone cannot satisfy it)", d)
	default:
	}
	stores[0].AdvanceEpoch(2)
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("AdvanceEpoch did not release the blocked commit")
	}
	if got := stores[0].Epoch(); got != 2 {
		t.Fatalf("Epoch = %d, want 2", got)
	}
	// The local copy still committed (recovery can use it).
	v, ok, _ := stores[0].LastCommitted(0)
	if !ok || v != 1 {
		t.Fatalf("LastCommitted = %d,%v after epoch release", v, ok)
	}
	// A commit started under the NEW epoch blocks again (one neighbor is
	// still dead and the timeout is an hour) until the next advance — the
	// release is per-epoch, not a permanent interrupt.
	released2 := make(chan struct{})
	go func() {
		writeDistCommitted(t, stores[0], 0, 2, map[string][]byte{"a": {8}})
		close(released2)
	}()
	time.Sleep(100 * time.Millisecond)
	select {
	case <-released2:
		t.Fatal("new-epoch commit returned without waiting for acks")
	default:
	}
	stores[0].AdvanceEpoch(3)
	select {
	case <-released2:
	case <-time.After(5 * time.Second):
		t.Fatal("second AdvanceEpoch did not release the commit")
	}
}

// TestDistStoreEpochReleasesLateCommit: a checkpoint begun before an epoch
// advance but committed after it belongs to the ended attempt, so its
// commit must not wait for a dead neighbor either.
func TestDistStoreEpochReleasesLateCommit(t *testing.T) {
	stores := distWorld(t, 3, WithAckTimeout(time.Hour))
	stores[1].net.Kill(1) // rank 1 is dead: it will never ack
	ck, err := stores[0].Begin(0, 1)
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := ck.WriteSection("a", []byte{7}); err != nil {
		t.Fatalf("WriteSection: %v", err)
	}
	stores[0].AdvanceEpoch(2)
	released := make(chan error, 1)
	go func() { released <- ck.Commit() }()
	select {
	case err := <-released:
		if err != nil {
			t.Fatalf("Commit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a checkpoint begun before the epoch advance waited for the dead neighbor")
	}
}

// TestDistStoreAdvanceEpochMonotonic: stale (lower) epochs are ignored.
func TestDistStoreAdvanceEpochMonotonic(t *testing.T) {
	stores := distWorld(t, 2)
	stores[0].AdvanceEpoch(5)
	stores[0].AdvanceEpoch(3)
	if got := stores[0].Epoch(); got != 5 {
		t.Fatalf("Epoch = %d after stale advance, want 5", got)
	}
}

// TestDistStoreCommitHook: the hook fires once per committed version with
// the version number.
func TestDistStoreCommitHook(t *testing.T) {
	var mu sync.Mutex
	var got []int
	hook := func(v int) {
		mu.Lock()
		got = append(got, v)
		mu.Unlock()
	}
	// Only rank 0 commits, so only its hook fires.
	stores := distWorld(t, 3, WithCommitHook(hook))
	writeDistCommitted(t, stores[0], 0, 1, map[string][]byte{"a": {1}})
	writeDistCommitted(t, stores[0], 0, 2, map[string][]byte{"a": {2}})
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("commit hook saw %v, want [1 2]", got)
	}
}

// TestDistStoreQueryRetries: reassembly still works with a short query
// timeout when retry sweeps are configured — the timeout can expire on a
// slow peer without failing the fragment for good.
func TestDistStoreQueryRetries(t *testing.T) {
	stores := distWorld(t, 4,
		WithQueryTimeout(50*time.Millisecond), WithQueryRetries(3))
	writeDistCommitted(t, stores[1], 1, 1, map[string][]byte{"app": []byte("retry me")})

	// Wipe the owner, as in the restart test.
	s1 := stores[1]
	s1.wipe()

	snap, err := s1.Open(1, 1)
	if err != nil {
		t.Fatalf("Open with retries: %v", err)
	}
	defer snap.Close()
	if got, err := snap.ReadSection("app"); err != nil || string(got) != "retry me" {
		t.Fatalf("ReadSection = %q, %v", got, err)
	}
}

// TestDistStoreRSCodecRecoversAfterDualWipe: the multi-process store under
// rs k=3,m=2 — the owner AND one shard holder lose their memory (the
// in-memory analogue of two simultaneous SIGKILLs) and the restarted owner
// still reassembles its line over the query protocol.
func TestDistStoreRSCodecRecoversAfterDualWipe(t *testing.T) {
	rs, err := NewCodec("rs", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	stores := distWorld(t, 6, WithDistCodec(rs))
	payload := make([]byte, 10_000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	writeDistCommitted(t, stores[1], 1, 1, map[string][]byte{"app": payload})

	// The owner keeps no full local copy under an erasure codec.
	stores[1].mu.Lock()
	if len(stores[1].node.local) != 0 {
		stores[1].mu.Unlock()
		t.Fatal("erasure-coded commit left a full local copy")
	}
	stores[1].mu.Unlock()

	// Wipe the owner and one shard holder (two simultaneous deaths).
	for _, r := range []int{1, 3} {
		stores[r].wipe()
	}

	v, ok, err := stores[1].LastCommitted(1)
	if err != nil || !ok || v != 1 {
		t.Fatalf("LastCommitted after dual wipe = %d,%v,%v; want 1,true,nil", v, ok, err)
	}
	snap, err := stores[1].Open(1, 1)
	if err != nil {
		t.Fatalf("Open after dual wipe: %v", err)
	}
	defer snap.Close()
	got, err := snap.ReadSection("app")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("reassembled %d bytes, err %v", len(got), err)
	}
	if stores[1].Reassemblies() != 1 {
		t.Fatalf("Reassemblies = %d", stores[1].Reassemblies())
	}
}

// TestDistStoreCodecStoredBytes: per-process stored bytes under rs stay a
// fraction of the dup footprint for the same checkpoints.
func TestDistStoreCodecStoredBytes(t *testing.T) {
	payload := make([]byte, 32*1024)
	measure := func(opts ...DistOption) int64 {
		stores := distWorld(t, 6, opts...)
		for r := 0; r < 6; r++ {
			writeDistCommitted(t, stores[r], r, 1, map[string][]byte{"app": payload})
		}
		var total int64
		for _, s := range stores {
			total += s.StoredBytes()
		}
		return total
	}
	dup := measure()
	rs, err := NewCodec("rs", 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	coded := measure(WithDistCodec(rs))
	ratio := float64(coded) / float64(dup)
	t.Logf("dist stored bytes: dup=%d rs=%d ratio=%.3f", dup, coded, ratio)
	if ratio > 0.6 {
		t.Fatalf("rs/dup stored ratio %.3f > 0.6", ratio)
	}
}

// TestDistStoreCodedCommitFailsWithoutQuorum: under an erasure codec the
// ack-timeout excusal has a floor — when the silent holders account for
// more shards than the parity budget, Commit must fail instead of
// reporting a line that exists nowhere (there is no local copy to fall
// back on, and success would let the protocol retire the previous line).
func TestDistStoreCodedCommitFailsWithoutQuorum(t *testing.T) {
	rs, err := NewCodec("rs", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	stores := distWorld(t, 5, WithDistCodec(rs), WithAckTimeout(200*time.Millisecond), WithQueryTimeout(200*time.Millisecond))
	// Rank 0's four shards land on successors 1..4; kill three of them.
	for _, r := range []int{1, 2, 3} {
		stores[r].net.Kill(r)
	}
	ck, err := stores[0].Begin(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.WriteSection("app", []byte("needs two shards")); err != nil {
		t.Fatal(err)
	}
	if err := ck.Commit(); err == nil {
		t.Fatal("coded commit with 3 of 4 shard holders dead reported success")
	}
	if _, ok, _ := stores[0].LastCommitted(0); ok {
		t.Fatal("failed commit visible to LastCommitted")
	}

	// Losing exactly the parity budget is excused: the line still exists.
	stores2 := distWorld(t, 5, WithDistCodec(rs), WithAckTimeout(200*time.Millisecond), WithQueryTimeout(200*time.Millisecond))
	for _, r := range []int{1, 2} {
		stores2[r].net.Kill(r)
	}
	writeDistCommitted(t, stores2[0], 0, 1, map[string][]byte{"app": []byte("two shards suffice")})
	if v, ok, _ := stores2[0].LastCommitted(0); !ok || v != 1 {
		t.Fatalf("LastCommitted = %d,%v after excusable losses", v, ok)
	}
}
