package cluster_test

import (
	"sync"
	"testing"
	"time"

	"c3/internal/ckpt"
	"c3/internal/cluster"
	"c3/internal/sched"
	"c3/internal/stable"
)

// commitLogStore wraps a Store and records, per rank, the order in which
// versions reached durable commit — the observable the async pipeline's
// commit fence is specified by.
type commitLogStore struct {
	stable.Store
	mu      sync.Mutex
	commits map[int][]int
}

func newCommitLogStore(inner stable.Store) *commitLogStore {
	return &commitLogStore{Store: inner, commits: make(map[int][]int)}
}

func (s *commitLogStore) Begin(rank, version int) (stable.Checkpoint, error) {
	ck, err := s.Store.Begin(rank, version)
	if err != nil {
		return nil, err
	}
	return &commitLogHandle{store: s, rank: rank, version: version, inner: ck}, nil
}

func (s *commitLogStore) log(rank, version int) {
	s.mu.Lock()
	s.commits[rank] = append(s.commits[rank], version)
	s.mu.Unlock()
}

func (s *commitLogStore) perRank() map[int][]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int][]int, len(s.commits))
	for r, vs := range s.commits {
		out[r] = append([]int(nil), vs...)
	}
	return out
}

type commitLogHandle struct {
	store   *commitLogStore
	rank    int
	version int
	inner   stable.Checkpoint
}

func (h *commitLogHandle) WriteSection(name string, data []byte) error {
	return h.inner.WriteSection(name, data)
}

func (h *commitLogHandle) WriteParts(name string, parts [][]byte) error {
	return h.inner.WriteParts(name, parts)
}

func (h *commitLogHandle) Commit() error {
	if err := h.inner.Commit(); err != nil {
		return err
	}
	h.store.log(h.rank, h.version)
	return nil
}

func (h *commitLogHandle) Abort() error { return h.inner.Abort() }

// TestAsyncCommitMatchesBlocking runs the deterministic stress workload in
// both commit modes and requires identical per-rank checksums: the async
// pipeline must not change what gets saved, only when the store sees it.
func TestAsyncCommitMatchesBlocking(t *testing.T) {
	const ranks, iters = 5, 12
	var ref sync.Map
	run(t, cluster.Config{Ranks: ranks, App: sched.StressApp(iters, &ref)})

	var got sync.Map
	cfg := cluster.Config{
		Ranks:  ranks,
		App:    sched.StressApp(iters, &got),
		Policy: ckpt.Policy{EveryNthPragma: 3, AsyncCommit: true},
	}
	res := run(t, cfg)
	for r := 0; r < ranks; r++ {
		want, _ := ref.Load(r)
		gotv, _ := got.Load(r)
		if want != gotv {
			t.Errorf("rank %d checksum diverged under async commit: %v vs %v", r, gotv, want)
		}
	}
	var async uint64
	for _, rs := range res.Stats {
		async += rs.Stats.AsyncCommits
	}
	if async == 0 {
		t.Fatal("no line went through the async pipeline")
	}
}

// TestAsyncCommitFenceOrdering delays the store so several captured lines
// are in flight behind the committer, and verifies the commit fence: every
// rank's versions reach durable commit strictly in order, with no line
// skipped — recovery can never observe line k+1 without line k.
func TestAsyncCommitFenceOrdering(t *testing.T) {
	const ranks, iters = 4, 10
	store := newCommitLogStore(stable.NewDelayedStore(stable.NewMemStore(), 2*time.Millisecond, 0))
	var got sync.Map
	cfg := cluster.Config{
		Ranks:  ranks,
		App:    sched.StressApp(iters, &got),
		Store:  store,
		Policy: ckpt.Policy{EveryNthPragma: 2, AsyncCommit: true},
	}
	run(t, cfg)
	for r, versions := range store.perRank() {
		if len(versions) == 0 {
			t.Fatalf("rank %d committed nothing", r)
		}
		for i, v := range versions {
			if v != i+1 {
				t.Fatalf("rank %d commit order %v violates the fence at position %d", r, versions, i)
			}
		}
	}
}

// TestAsyncFailureMidCommit injects a fail-stop failure while the victim's
// committer is still writing earlier lines (the store is slow), so
// in-flight captures must be discarded — never half-committed — and the
// world must restart from the last durable line with correct state.
func TestAsyncFailureMidCommit(t *testing.T) {
	const ranks, iters = 3, 12
	var ref sync.Map
	run(t, cluster.Config{Ranks: ranks, App: sched.StressApp(iters, &ref)})

	store := newCommitLogStore(stable.NewDelayedStore(stable.NewMemStore(), 5*time.Millisecond, 0))
	var got sync.Map
	cfg := cluster.Config{
		Ranks:    ranks,
		App:      sched.StressApp(iters, &got),
		Store:    store,
		Policy:   ckpt.Policy{EveryNthPragma: 2, AsyncCommit: true},
		Failures: []cluster.FailureSpec{{Rank: 1, AtPragma: 5, AfterCheckpoints: 2}},
	}
	res := run(t, cfg)
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", res.Attempts)
	}
	for r := 0; r < ranks; r++ {
		want, _ := ref.Load(r)
		gotv, _ := got.Load(r)
		if want != gotv {
			t.Errorf("rank %d checksum diverged after mid-commit failure: %v vs %v", r, gotv, want)
		}
	}
	for r, versions := range store.perRank() {
		seen := make(map[int]bool)
		last := 0
		for _, v := range versions {
			if seen[v] {
				continue // recommitted after restart; fine
			}
			seen[v] = true
			if v < last {
				t.Fatalf("rank %d commit order %v moved backwards", r, versions)
			}
			last = v
		}
	}
}

// TestAsyncRetireKeepsFailedPeersLine pins the garbage-collection floor
// regression: with a slow store and a checkpoint at every pragma, a
// failing rank's durable watermark trails its epoch by up to three lines
// (two protocol-committed lines die in the pipeline). Survivors must not
// have retired the line the global reduction then picks — before the
// asyncPipelineDepth allowance in enterRecvOnlyLog, this failed with
// "open checkpoint: not found" on a surviving rank.
func TestAsyncRetireKeepsFailedPeersLine(t *testing.T) {
	for i := 0; i < 5; i++ {
		var got sync.Map
		cfg := cluster.Config{
			Ranks:    3,
			App:      sched.StressApp(20, &got),
			Store:    stable.NewDelayedStore(stable.NewMemStore(), 3*time.Millisecond, 0),
			Policy:   ckpt.Policy{EveryNthPragma: 1, AsyncCommit: true},
			Failures: []cluster.FailureSpec{{Rank: 1, AtPragma: 15, AfterCheckpoints: 5}},
		}
		run(t, cfg)
	}
}

// TestRetireKeepsOnlyTheFloor pins that a failure-free run garbage-collects
// in both commit modes: a rank keeps its lines down to the last
// garbage-collection floor and no older — two versions when lines commit
// inline, and up to asyncPipelineDepth+2 = 4 behind the asynchronous
// pipeline, which holds the floor back by its depth.
func TestRetireKeepsOnlyTheFloor(t *testing.T) {
	const ranks = 3
	for _, tc := range []struct {
		async bool
		keep  int
	}{{false, 2}, {true, 4}} {
		store, err := stable.NewDiskStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var got sync.Map
		run(t, cluster.Config{
			Ranks:  ranks,
			App:    sched.StressApp(12, &got),
			Store:  store,
			Policy: ckpt.Policy{EveryNthPragma: 2, AsyncCommit: tc.async},
		})
		for r := 0; r < ranks; r++ {
			last, ok, err := store.LastCommitted(r)
			if err != nil || !ok {
				t.Fatalf("async=%v: rank %d has no committed line: %v", tc.async, r, err)
			}
			var kept []int
			for v := 1; v <= last; v++ {
				if snap, err := store.Open(r, v); err == nil {
					_ = snap.Close() // read-only snapshot, never read
					kept = append(kept, v)
				}
			}
			if len(kept) > tc.keep {
				t.Errorf("async=%v: rank %d keeps versions %v, want at most %d", tc.async, r, kept, tc.keep)
			}
		}
	}
}

// TestAsyncReplicatedSurvivesFailure is the headline scenario: asynchronous
// commit into the diskless replicated store, a fail-stop failure that wipes
// the victim's node memory, and recovery that reassembles the victim's last
// committed line from surviving peers — no disk store configured anywhere.
func TestAsyncReplicatedSurvivesFailure(t *testing.T) {
	const ranks, iters = 5, 12
	var ref sync.Map
	run(t, cluster.Config{Ranks: ranks, App: sched.StressApp(iters, &ref)})

	store := stable.NewReplicatedStore(ranks)
	defer store.Close()
	var got sync.Map
	cfg := cluster.Config{
		Ranks:    ranks,
		App:      sched.StressApp(iters, &got),
		Store:    store,
		Policy:   ckpt.Policy{EveryNthPragma: 3, AsyncCommit: true},
		Failures: []cluster.FailureSpec{{Rank: 2, AtPragma: 8, AfterCheckpoints: 2}},
	}
	res := run(t, cfg)
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", res.Attempts)
	}
	for r := 0; r < ranks; r++ {
		want, _ := ref.Load(r)
		gotv, ok := got.Load(r)
		if !ok {
			t.Fatalf("rank %d has no result", r)
		}
		if want != gotv {
			t.Errorf("rank %d checksum diverged: recovered %v, failure-free %v", r, gotv, want)
		}
	}
	var restores uint64
	for _, rs := range res.Stats {
		restores += rs.Stats.Restores
	}
	if restores == 0 {
		t.Fatal("final attempt did not restore from a recovery line")
	}
	if store.Reassemblies() == 0 {
		t.Fatal("the failed rank's line should have been reassembled from peer fragments")
	}
	if st := store.NetworkStats(); st.MessagesSent == 0 {
		t.Fatal("replication should have used the transport")
	}
}

// TestReplicatedBlockingCommitAlsoRecovers checks the replicated store is
// not tied to the async pipeline: synchronous commits replicate and recover
// the same way.
func TestReplicatedBlockingCommitAlsoRecovers(t *testing.T) {
	const ranks, iters = 4, 10
	var ref sync.Map
	run(t, cluster.Config{Ranks: ranks, App: sched.StressApp(iters, &ref)})

	store := stable.NewReplicatedStore(ranks)
	defer store.Close()
	var got sync.Map
	cfg := cluster.Config{
		Ranks:    ranks,
		App:      sched.StressApp(iters, &got),
		Store:    store,
		Policy:   ckpt.Policy{EveryNthPragma: 3},
		Failures: []cluster.FailureSpec{{Rank: 0, AtPragma: 7, AfterCheckpoints: 1}},
	}
	run(t, cfg)
	for r := 0; r < ranks; r++ {
		want, _ := ref.Load(r)
		gotv, _ := got.Load(r)
		if want != gotv {
			t.Errorf("rank %d checksum diverged: %v vs %v", r, gotv, want)
		}
	}
}
