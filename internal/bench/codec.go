package bench

import (
	"fmt"
	"time"

	"c3/internal/apps"
	"c3/internal/stable"
)

// codecBenchSpec is one AblationCodec row: a codec geometry plus the
// number of simultaneous rank losses a committed line survives.
type codecBenchSpec struct {
	name      string
	k, m      int
	tolerates int
}

// codecBenchSpecs compares the three codecs with dup and rs at EQUAL fault
// tolerance (any two simultaneous losses) and xor as the cheaper
// single-loss point in between.
var codecBenchSpecs = []codecBenchSpec{
	{name: "dup", k: 2, m: 0, tolerates: 2},
	{name: "xor", k: 4, m: 0, tolerates: 1},
	{name: "rs", k: 4, m: 2, tolerates: 2},
}

// codecBenchBlob sizes the synthetic per-rank checkpoint by problem class.
func codecBenchBlob(class apps.Class) int {
	switch class {
	case apps.ClassS:
		return 128 << 10
	case apps.ClassA:
		return 4 << 20
	default:
		return 1 << 20
	}
}

// AblationCodec prices the stable-storage codecs on the diskless
// replicated store: interconnect bytes shipped per commit, bytes resident
// per rank, the storage ratio against dup full replication, commit latency
// (synchronous-replicated, to acknowledgment), and reassembly latency
// after the owner's node loss. This is the scaling argument for erasure
// coding: rs k=4,m=2 matches dup's two-loss tolerance at half the wire
// bytes and half the per-rank memory.
func AblationCodec(opts Options) (*Table, error) {
	const worldRanks = 8
	blobSize := codecBenchBlob(opts.class())
	payload := make([]byte, blobSize)
	for i := range payload {
		payload[i] = byte(i * 2654435761)
	}
	t := &Table{
		Title: fmt.Sprintf("Ablation: stable-storage codecs (diskless store, %d ranks, %d KiB checkpoint/rank)",
			worldRanks, blobSize>>10),
		Columns: []string{"Codec", "Shards", "Tolerates", "Wire MB/ckpt", "Stored MB/rank", "Stored vs dup", "Commit (ms)", "Reassembly (ms)"},
	}
	reps := opts.reps()
	var dupStoredPerRank float64
	for _, spec := range codecBenchSpecs {
		codec, err := stable.NewCodec(spec.name, spec.k, spec.m)
		if err != nil {
			return nil, err
		}
		store := stable.NewReplicatedStore(worldRanks, stable.WithDistCodec(codec))

		// reps rounds of a full world commit, retiring the previous round
		// so the resident footprint always reflects exactly one line.
		var commitTimes []time.Duration
		version := 0
		for rep := 0; rep < reps; rep++ {
			version = rep + 1
			for r := 0; r < worldRanks; r++ {
				ck, err := store.Begin(r, version)
				if err != nil {
					store.Close()
					return nil, err
				}
				if err := ck.WriteSection("app", payload); err != nil {
					store.Close()
					return nil, err
				}
				begin := time.Now()
				if err := ck.Commit(); err != nil {
					store.Close()
					return nil, err
				}
				commitTimes = append(commitTimes, time.Since(begin))
			}
			for r := 0; r < worldRanks; r++ {
				if err := store.Retire(r, version); err != nil {
					store.Close()
					return nil, err
				}
			}
		}
		commits := int64(reps * worldRanks)
		wirePerCkpt := float64(store.ReplicatedBytes()) / float64(commits)
		storedPerRank := float64(store.StoredBytes()) / float64(worldRanks)
		if spec.name == "dup" {
			dupStoredPerRank = storedPerRank
		}
		ratio := "-"
		if dupStoredPerRank > 0 {
			ratio = fmt.Sprintf("%.2fx", storedPerRank/dupStoredPerRank)
		}

		// Reassembly: the owner's node dies and its line is rebuilt from
		// peer fragments/shards — the disk-free recovery path.
		store.FailNode(0)
		begin := time.Now()
		snap, err := store.Open(0, version)
		reassembly := time.Since(begin)
		if err != nil {
			store.Close()
			return nil, fmt.Errorf("bench: %s reassembly: %w", spec.name, err)
		}
		snap.Close()
		store.Close()

		t.Rows = append(t.Rows, []string{
			spec.name,
			fmt.Sprintf("%d+%d", codec.DataShards(), codec.ParityShards()),
			fmt.Sprintf("%d losses", spec.tolerates),
			mbs(int64(wirePerCkpt)),
			mbs(int64(storedPerRank)),
			ratio,
			fmt.Sprintf("%.3f", medianDuration(commitTimes).Seconds()*1e3),
			fmt.Sprintf("%.3f", reassembly.Seconds()*1e3),
		})
	}
	t.Notes = append(t.Notes,
		"dup: full blob to both +1/+2 neighbors plus a local copy (the pre-codec scheme).",
		"xor/rs: one shard per distinct ring successor, parity placement rotated per owner, NO full local copy — every restore reassembles.",
		"dup and rs (m=2) both survive any two simultaneous node losses; the acceptance bar is rs stored/rank <= 0.6x dup.",
		"Commit is synchronous-replicated: the latency includes shipping every shard and collecting holder acknowledgments over the in-memory interconnect.")
	return t, nil
}

// medianDuration returns the median of a non-empty sample.
func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[len(sorted)/2]
}
