package cluster_test

// In-process end-to-end coverage of the erasure-coded stable store: the
// same dual-failure scenario the multi-process TestMultiProcessDualSIGKILLRS
// runs over TCP, here against ReplicatedStore with fail-stop injection —
// cheap enough to run under -race on every push.

import (
	"sync"
	"testing"

	"c3/internal/ckpt"
	"c3/internal/cluster"
	"c3/internal/sched"
	"c3/internal/stable"
)

// TestInProcessDualFailureRSCodec: two ranks fail-stop in the same attempt
// under rs k=3,m=2; each dead rank's lines survive as >= 3 of 5 shards on
// the surviving nodes and the world converges to failure-free checksums.
func TestInProcessDualFailureRSCodec(t *testing.T) {
	const ranks = 6
	const iters = 12

	var ref sync.Map
	run(t, cluster.Config{Ranks: ranks, App: sched.StressApp(iters, &ref), Seed: 1})

	rs, err := stable.NewCodec("rs", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	store := stable.NewReplicatedStore(ranks, stable.WithDistCodec(rs))
	defer store.Close()
	var got sync.Map
	res := run(t, cluster.Config{
		Ranks:  ranks,
		App:    sched.StressApp(iters, &got),
		Store:  store,
		Policy: ckpt.Policy{EveryNthPragma: 4},
		AttemptFailures: [][]cluster.FailureSpec{{
			{Rank: 1, AtPragma: 9, AfterCheckpoints: 2},
			{Rank: 3, AtPragma: 9, AfterCheckpoints: 2},
		}},
	})
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", res.Attempts)
	}
	for r := 0; r < ranks; r++ {
		want, _ := ref.Load(r)
		gotv, ok := got.Load(r)
		if !ok || want != gotv {
			t.Fatalf("rank %d: ref %v vs recovered %v", r, want, gotv)
		}
	}
	if store.Reassemblies() == 0 {
		t.Fatal("recovery did not reassemble any checkpoint from shards")
	}
	// The stats surface the overhead ratio: stored bytes stay well under
	// dup's 3x-plus (local + two full replicas) for the same checkpoints.
	// rs k=3,m=2 is nominally 5/3 of the blob; the blob carries section
	// framing and shard padding on top of the raw CheckpointBytes, so
	// small test checkpoints land a little above that — but far below dup.
	for _, rs := range res.Stats {
		if rs.Stats.CheckpointBytes == 0 || rs.Stats.StoredBytes == 0 {
			continue
		}
		ratio := float64(rs.Stats.StoredBytes) / float64(rs.Stats.CheckpointBytes)
		if ratio > 2.5 {
			t.Fatalf("rank %d stored/checkpoint ratio %.2f — erasure coding not applied?", rs.Rank, ratio)
		}
	}
}

// TestInProcessXORCodecSingleFailure: the cheaper single-parity codec
// survives the single-failure scenario it is specified for.
func TestInProcessXORCodecSingleFailure(t *testing.T) {
	const ranks = 5
	const iters = 12

	var ref sync.Map
	run(t, cluster.Config{Ranks: ranks, App: sched.StressApp(iters, &ref), Seed: 1})

	xor, err := stable.NewCodec("xor", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	store := stable.NewReplicatedStore(ranks, stable.WithDistCodec(xor))
	defer store.Close()
	var got sync.Map
	res := run(t, cluster.Config{
		Ranks:    ranks,
		App:      sched.StressApp(iters, &got),
		Store:    store,
		Policy:   ckpt.Policy{EveryNthPragma: 4},
		Failures: []cluster.FailureSpec{{Rank: 2, AtPragma: 9, AfterCheckpoints: 2}},
	})
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d", res.Attempts)
	}
	for r := 0; r < ranks; r++ {
		want, _ := ref.Load(r)
		gotv, ok := got.Load(r)
		if !ok || want != gotv {
			t.Fatalf("rank %d: ref %v vs recovered %v", r, want, gotv)
		}
	}
}
