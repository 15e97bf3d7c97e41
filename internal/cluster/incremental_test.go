package cluster_test

import (
	"fmt"
	"sync"
	"testing"

	"c3/internal/ckpt"
	"c3/internal/cluster"
	"c3/internal/mpi"
	"c3/internal/stable"
)

// incrementalApp has a large static section and a small hot section, the
// state shape incremental checkpointing pays off on.
func incrementalApp(iters int, sums *sync.Map) func(cluster.Env) error {
	return func(env cluster.Env) error {
		st := env.State()
		it := st.Int("it")
		hot := st.Int("hot")
		static := st.Float64s("static", 64*1024).Data() // 512 KB, written once
		if _, err := env.Restore(); err != nil {
			return err
		}
		w := env.World()
		if it.Get() == 0 && static[0] == 0 {
			for i := range static {
				static[i] = float64(i + env.Rank())
			}
		}
		for it.Get() < iters {
			other := (env.Rank() + 1) % env.Size()
			var in [1]byte
			if _, err := w.Sendrecv([]byte{byte(it.Get())}, 1, mpi.TypeByte, other, 3,
				in[:], 1, mpi.TypeByte, (env.Rank()+env.Size()-1)%env.Size(), 3); err != nil {
				return err
			}
			hot.Add(int(in[0]))
			it.Add(1)
			if err := env.Checkpoint(); err != nil {
				return err
			}
		}
		sums.Store(env.Rank(), hot.Get()*1000000+int(static[123]))
		return nil
	}
}

// TestIncrementalCheckpointRecovery runs the paper's future-work extension:
// deltas between full snapshots must recover exactly, across a failure that
// lands several deltas past the last full checkpoint, on every kind of
// store and behind both commit modes.
func TestIncrementalCheckpointRecovery(t *testing.T) {
	const ranks = 3
	const iters = 10

	var ref sync.Map
	run(t, cluster.Config{Ranks: ranks, Direct: true, App: incrementalApp(iters, &ref)})

	stores := []struct {
		name string
		open func(t *testing.T) stable.Store
	}{
		{"mem", func(*testing.T) stable.Store { return stable.NewMemStore() }},
		{"disk", func(t *testing.T) stable.Store {
			store, err := stable.NewDiskStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return store
		}},
		{"replicated", func(t *testing.T) stable.Store {
			store := stable.NewReplicatedStore(ranks)
			t.Cleanup(store.Close)
			return store
		}},
	}
	for _, st := range stores {
		for _, async := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/async=%v", st.name, async), func(t *testing.T) {
				var got sync.Map
				res := run(t, cluster.Config{
					Ranks:               ranks,
					App:                 incrementalApp(iters, &got),
					Store:               st.open(t),
					Policy:              ckpt.Policy{EveryNthPragma: 1, AsyncCommit: async}, // checkpoint every iteration
					FullCheckpointEvery: 4,
					Failures:            []cluster.FailureSpec{{Rank: 1, AtPragma: 7}},
				})
				if res.Attempts != 2 {
					t.Fatalf("attempts = %d", res.Attempts)
				}
				for r := 0; r < ranks; r++ {
					want, _ := ref.Load(r)
					gotv, ok := got.Load(r)
					if !ok || want != gotv {
						t.Fatalf("rank %d: ref %v vs incremental-recovered %v", r, want, gotv)
					}
				}
			})
		}
	}
}

// TestIncrementalCheckpointsAreSmaller verifies the point of the extension:
// with a mostly-static state, the bytes written with incremental mode are a
// fraction of the full-checkpoint bytes.
func TestIncrementalCheckpointsAreSmaller(t *testing.T) {
	const ranks = 2
	const iters = 8

	measure := func(fullEvery int) int64 {
		store := stable.NewMemStore()
		var out sync.Map
		run(t, cluster.Config{
			Ranks:               ranks,
			App:                 incrementalApp(iters, &out),
			Store:               store,
			Policy:              ckpt.Policy{EveryNthPragma: 1},
			FullCheckpointEvery: fullEvery,
		})
		return store.BytesWritten()
	}

	full := measure(0)
	inc := measure(4)
	if inc >= full/2 {
		t.Fatalf("incremental checkpoints not smaller: %d vs %d bytes", inc, full)
	}
}

// TestIncrementalRetireKeepsChain makes sure garbage collection never
// deletes a delta's anchor: after many checkpoints, recovery must still
// find the full snapshot its chain starts at.
func TestIncrementalRetireKeepsChain(t *testing.T) {
	const ranks = 2
	const iters = 11
	var ref, got sync.Map
	run(t, cluster.Config{Ranks: ranks, Direct: true, App: incrementalApp(iters, &ref)})

	res := run(t, cluster.Config{
		Ranks:               ranks,
		App:                 incrementalApp(iters, &got),
		Policy:              ckpt.Policy{EveryNthPragma: 1},
		FullCheckpointEvery: 3,
		Failures:            []cluster.FailureSpec{{Rank: 0, AtPragma: 11}},
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

// tombstoneApp exercises section removal mid-chain: "scratch" is set
// early, then zeroed and unregistered once the protocol reaches line 6 —
// after the full-snapshot anchor (line 5), so later deltas must carry a
// tombstone. The app reads scratch back right after a restore that lands
// past the tombstone line: any non-zero value is state the recovery chain
// resurrected, and it flows into the checksum.
func tombstoneApp(iters int, sums *sync.Map) func(cluster.Env) error {
	return func(env cluster.Env) error {
		st := env.State()
		it := st.Int("it")
		hot := st.Int("hot")
		leak := st.Int("leak")
		scratch := st.Int("scratch") // prologue registers it at zero
		restored, err := env.Restore()
		if err != nil {
			return err
		}
		layer := cluster.LayerOf(env)
		if restored && layer.Epoch() >= 7 {
			// The restored line postdates the tombstone (line 7): scratch
			// must have stayed at its freshly registered zero.
			leak.Set(leak.Get() + int(scratch.Get()))
		}
		w := env.World()
		for it.Get() < iters {
			other := (env.Rank() + 1) % env.Size()
			var in [1]byte
			if _, err := w.Sendrecv([]byte{byte(it.Get())}, 1, mpi.TypeByte, other, 3,
				in[:], 1, mpi.TypeByte, (env.Rank()+env.Size()-1)%env.Size(), 3); err != nil {
				return err
			}
			hot.Add(int(in[0]))
			it.Add(1)
			if it.Get() == 2 {
				scratch.Set(777) // lives in the line-5 anchor snapshot
			}
			if _, live := st.Lookup("scratch"); live && layer != nil && layer.Epoch() >= 6 {
				scratch.Set(0)
				st.Unregister("scratch") // leaves checkpointed state here
			}
			if err := env.Checkpoint(); err != nil {
				return err
			}
		}
		sums.Store(env.Rank(), hot.Get()*100000+int(leak.Get()))
		return nil
	}
}

// TestIncrementalRemovedSectionStaysRemoved is the tombstone regression:
// a section present at the full-snapshot anchor but unregistered before
// the recovery line must NOT reappear (with stale contents) on recovery.
func TestIncrementalRemovedSectionStaysRemoved(t *testing.T) {
	const ranks = 3
	const iters = 20

	base := func(sums *sync.Map) cluster.Config {
		return cluster.Config{
			Ranks:               ranks,
			App:                 tombstoneApp(iters, sums),
			Policy:              ckpt.Policy{EveryNthPragma: 1},
			FullCheckpointEvery: 4,
		}
	}
	var ref sync.Map
	run(t, base(&ref))

	var got sync.Map
	cfg := base(&got)
	// Fire at the first pragma after line 8 starts: the recovery line lands
	// in [6,8] — past the tombstone-carrying delta but before the next
	// anchor (line 9) would mask the resurrection.
	cfg.Failures = []cluster.FailureSpec{{Rank: 1, AtPragma: 1, AfterCheckpoints: 8}}
	res := run(t, cfg)
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d", res.Attempts)
	}
	for r := 0; r < ranks; r++ {
		want, _ := ref.Load(r)
		gotv, ok := got.Load(r)
		if !ok || want != gotv {
			t.Fatalf("rank %d: ref %v vs recovered %v — removed section resurrected", r, want, gotv)
		}
	}
}
