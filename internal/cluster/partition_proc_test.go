package cluster_test

// The multi-process partition acceptance test: a 5-process TCP world is
// split 3/2 by the launcher mid-run (blackhole via the part pipe command
// on every worker), the majority side commits an epoch declaring the
// minority dead, the fenced minority commits NOTHING while severed, and
// after the heal the minority rejoins through the state-snapshot path and
// the whole world converges to the failure-free checksums.

import (
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"c3/internal/cluster"
)

// launchPartition runs a self-healing multi-process world with an
// external partition injected by the launcher.
func launchPartition(t *testing.T, ranks int, part *cluster.ExternalPartitionSpec, extra ...string) *cluster.LaunchResult {
	t.Helper()
	res, err := cluster.Launch(cluster.LaunchConfig{
		Ranks:             ranks,
		Exe:               os.Args[0],
		Env:               []string{procWorkerEnv + "=1", "GOTRACEBACK=all"},
		Timeout:           90 * time.Second,
		ExternalPartition: part,
		Args: func(rank int, mpiAddrs, replAddrs []string) []string {
			args := []string{
				"-rank", strconv.Itoa(rank),
				"-ranks", strconv.Itoa(ranks),
				"-peers", strings.Join(mpiAddrs, ","),
				"-repl-peers", strings.Join(replAddrs, ","),
				"-heartbeat", "15ms",
				"-phi", "6",
				"-query-timeout", "1s",
				"-query-retries", "2",
			}
			return append(args, extra...)
		},
		Log: t.Logf,
	})
	if err != nil {
		t.Fatalf("partition launch: %v", err)
	}
	return res
}

func TestMultiProcessPartitionHeal(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test in -short mode")
	}
	const ranks = 5
	minority := []int{3, 4}
	ref := procReference(t, ranks)
	res := launchPartition(t, ranks,
		&cluster.ExternalPartitionSpec{
			GroupA:           minority,
			AfterCheckpoints: 2,
			HealAfter:        3 * time.Second,
		},
		"-every", "2")

	if res.PartTime.IsZero() || res.HealTime.IsZero() {
		t.Fatalf("launcher did not bracket the partition: part=%v heal=%v", res.PartTime, res.HealTime)
	}
	if d := res.HealTime.Sub(res.PartTime); d < 3*time.Second {
		t.Errorf("split lasted %v, want >= the configured 3s", d)
	}

	// The headline safety property: the fenced minority committed zero
	// checkpoints while severed. (The majority is not asserted — during
	// the split its app is blocked in full-world collectives, so at most a
	// commit already in flight lands.)
	for _, r := range minority {
		if n := res.SplitCkpts[r]; n != 0 {
			t.Errorf("minority rank %d committed %d checkpoint(s) while split, want 0", r, n)
		}
	}
	t.Logf("split-time commits: %v (split %v -> heal %v)", res.SplitCkpts, res.PartTime, res.HealTime)

	// Liveness after the heal: the majority's quorum epoch propagated
	// everywhere (every rank left epoch 1), the post-heal recovery
	// restored from a checkpoint line, and the checksums converge.
	for r := 0; r < ranks; r++ {
		stat := res.Stats[r]
		if e := statField(t, stat, "epochs"); e < 2 {
			t.Errorf("rank %d stat %q: epochs = %d, want >= 2 (quorum commit missing)", r, stat, e)
		}
		if statField(t, stat, "restores") < 1 {
			t.Errorf("rank %d stat %q: no restore after heal (fromscratch=%d)", r, stat, statField(t, stat, "fromscratch"))
		}
	}
	checkProcSums(t, res, ref)
}
