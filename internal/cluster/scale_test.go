package cluster_test

import (
	"os"
	"sync"
	"testing"
	"time"

	"c3/internal/ckpt"
	"c3/internal/cluster"
	"c3/internal/sched"
	"c3/internal/stable"
)

// TestScaleThousandRankWholeGroupLoss is the two-level topology's
// acceptance run: a 1024-rank world partitioned into 32 checkpoint groups
// loses an entire group at once (a whole fault domain — chassis, switch),
// recovers from the surviving groups' shards plus the cross-group parity,
// and every rank's checksum matches the failure-free reference. The
// virtual scheduler (Seed) keeps the run deterministic; a flat store could
// not survive this at any size — a group of 32 swallows every +1/+2
// neighbor shard of its interior ranks.
//
// The run takes ~10 minutes of wall clock, so it only executes when
// C3_SCALE=1 (the CI scale-smoke job); TestScaleGroupedWholeGroupLoss
// below covers the same fault at a size every `go test ./...` carries.
func TestScaleThousandRankWholeGroupLoss(t *testing.T) {
	if os.Getenv("C3_SCALE") == "" {
		t.Skip("1024-rank world (~10 min): set C3_SCALE=1 to run")
	}
	const ranks = 1024
	const groupSize = 32
	const iters = 4

	rs, err := stable.NewCodec("rs", 3, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Failure-free reference.
	var ref sync.Map
	refStore := stable.NewReplicatedStore(ranks, stable.WithDistCodec(rs), stable.WithDistGroupSize(groupSize))
	defer refStore.Close()
	runScale(t, cluster.Config{
		Ranks: ranks, App: sched.StressApp(iters, &ref), Store: refStore,
		Policy: ckpt.Policy{EveryNthPragma: 2}, Seed: 1,
	})

	// Group 2 (ranks 64..95) dies as one fault domain.
	correlated := make([]int, 0, groupSize-1)
	for r := 65; r < 96; r++ {
		correlated = append(correlated, r)
	}
	var got sync.Map
	store := stable.NewReplicatedStore(ranks, stable.WithDistCodec(rs), stable.WithDistGroupSize(groupSize))
	defer store.Close()
	res := runScale(t, cluster.Config{
		Ranks: ranks, App: sched.StressApp(iters, &got), Store: store,
		Policy: ckpt.Policy{EveryNthPragma: 2}, Seed: 1,
		Failures: []cluster.FailureSpec{{Rank: 64, AtPragma: 3, Correlated: correlated}},
	})
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one whole-group failure, one recovery)", res.Attempts)
	}
	for r := 0; r < ranks; r++ {
		want, _ := ref.Load(r)
		gotv, ok := got.Load(r)
		if !ok {
			t.Fatalf("rank %d has no result", r)
		}
		if want != gotv {
			t.Errorf("rank %d checksum diverged after whole-group loss: failure-free %v, recovered %v",
				r, want, gotv)
		}
	}
}

// TestScaleGroupedWholeGroupLoss is the tier-1-sized version of the same
// fault: 128 ranks in 8 groups of 16, one whole group killed at once,
// checksums gated against the failure-free reference.
func TestScaleGroupedWholeGroupLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("128-rank world: skipped in -short")
	}
	const ranks = 128
	const groupSize = 16
	const iters = 4

	rs, err := stable.NewCodec("rs", 3, 1)
	if err != nil {
		t.Fatal(err)
	}

	var ref sync.Map
	refStore := stable.NewReplicatedStore(ranks, stable.WithDistCodec(rs), stable.WithDistGroupSize(groupSize))
	defer refStore.Close()
	runScale(t, cluster.Config{
		Ranks: ranks, App: sched.StressApp(iters, &ref), Store: refStore,
		Policy: ckpt.Policy{EveryNthPragma: 2}, Seed: 1,
	})

	// Group 3 (ranks 48..63) dies as one fault domain.
	correlated := make([]int, 0, groupSize-1)
	for r := 49; r < 64; r++ {
		correlated = append(correlated, r)
	}
	var got sync.Map
	store := stable.NewReplicatedStore(ranks, stable.WithDistCodec(rs), stable.WithDistGroupSize(groupSize))
	defer store.Close()
	res := runScale(t, cluster.Config{
		Ranks: ranks, App: sched.StressApp(iters, &got), Store: store,
		Policy: ckpt.Policy{EveryNthPragma: 2}, Seed: 1,
		Failures: []cluster.FailureSpec{{Rank: 48, AtPragma: 3, Correlated: correlated}},
	})
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one whole-group failure, one recovery)", res.Attempts)
	}
	for r := 0; r < ranks; r++ {
		want, _ := ref.Load(r)
		gotv, ok := got.Load(r)
		if !ok {
			t.Fatalf("rank %d has no result", r)
		}
		if want != gotv {
			t.Errorf("rank %d checksum diverged after whole-group loss: failure-free %v, recovered %v",
				r, want, gotv)
		}
	}
}

// runScale is run with the timeout widened for thousand-rank worlds.
func runScale(t *testing.T, cfg cluster.Config) *cluster.Result {
	t.Helper()
	type out struct {
		res *cluster.Result
		err error
	}
	ch := make(chan out, 1)
	go func() {
		r, e := cluster.Run(cfg)
		ch <- out{r, e}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatalf("run failed: %v", o.err)
		}
		return o.res
	case <-time.After(8 * time.Minute):
		t.Fatal("scale run timed out")
		return nil
	}
}
