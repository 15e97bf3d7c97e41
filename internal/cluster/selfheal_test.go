package cluster_test

// Self-healing end-to-end tests: the launcher is a dumb respawner, the
// workers detect failures, agree on epochs, and coordinate recovery
// themselves (internal/detect over the replication mesh).

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"c3/internal/cluster"
	"c3/internal/trace"
)

// selfHealHeartbeat is the detector's heartbeat interval in launchSelfHeal
// worlds.
const selfHealHeartbeat = 15 * time.Millisecond

// launchSelfHeal runs a self-healing multi-process world from the test
// binary's worker mode.
func launchSelfHeal(t *testing.T, ranks int, kill *cluster.ExternalKillSpec, extra ...string) *cluster.LaunchResult {
	t.Helper()
	res, err := cluster.Launch(cluster.LaunchConfig{
		Ranks:        ranks,
		Exe:          os.Args[0],
		Env:          []string{procWorkerEnv + "=1", "GOTRACEBACK=all"},
		Timeout:      90 * time.Second,
		ExternalKill: kill,
		Args: func(rank int, mpiAddrs, replAddrs []string) []string {
			args := []string{
				"-rank", strconv.Itoa(rank),
				"-ranks", strconv.Itoa(ranks),
				"-peers", strings.Join(mpiAddrs, ","),
				"-repl-peers", strings.Join(replAddrs, ","),
				"-heartbeat", selfHealHeartbeat.String(),
				"-phi", "6",
				// Tuned with the suspicion threshold: recovery reads give a
				// still-rejoining peer a second sweep instead of one long wait.
				"-query-timeout", "1s",
				"-query-retries", "2",
			}
			return append(args, extra...)
		},
		Log: t.Logf,
	})
	if err != nil {
		t.Fatalf("self-heal launch: %v", err)
	}
	return res
}

// statField extracts an integer k=v field from a rank's stat line.
func statField(t *testing.T, stat, key string) int64 {
	t.Helper()
	for _, f := range strings.Fields(stat) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("stat field %s in %q: %v", key, stat, err)
			}
			return n
		}
	}
	t.Fatalf("stat %q has no %s field", stat, key)
	return 0
}

// TestSelfHealingExternalSIGKILL is the headline acceptance scenario: a
// 4-process world with NO launcher-injected failure spec survives an
// external `kill -9` purely via detector-triggered recovery. The launcher
// only plays operator (delivers the kill) and respawner (spawns the
// replacement on the coordinator's request); the survivors detect the
// death from the replication mesh's loss report, agree on epoch 2,
// interrupt in-flight commits, negotiate the restore line, and converge to
// the failure-free checksums. Detection must not wait for heartbeat
// silence: kill -> first suspicion stays within 5 heartbeat intervals,
// where phi accrual alone needs about 14.
func TestSelfHealingExternalSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test in -short mode")
	}
	const victim = 1
	ref := procReference(t, 4)
	traceDir := t.TempDir()
	res := launchSelfHeal(t, 4,
		&cluster.ExternalKillSpec{Rank: victim, AfterCheckpoints: 2},
		"-every", "2", "-trace-dir", traceDir)

	if res.Restarts != 1 {
		t.Fatalf("restarts=%d, want exactly 1 respawned process", res.Restarts)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts=%d, want 2 (one failure, one recovery)", res.Attempts)
	}
	if res.KillTime.IsZero() {
		t.Fatal("launcher did not record the external kill time")
	}
	checkProcSums(t, res, ref)

	// Survivors: exactly one detection, the agreement moved the world to
	// epoch 2, and the successful attempt restored from the recovery line.
	var latency time.Duration
	lossCaused := false
	for r := 0; r < 4; r++ {
		stat := res.Stats[r]
		if statField(t, stat, "epochs") != 2 {
			t.Errorf("rank %d stat %q: epochs != 2", r, stat)
		}
		if statField(t, stat, "restores") != 1 {
			t.Errorf("rank %d stat %q: restores != 1", r, stat)
		}
		if r == victim {
			continue
		}
		if statField(t, stat, "detections") != 1 {
			t.Errorf("survivor rank %d stat %q: detections != 1", r, stat)
		}
		if us := statField(t, stat, "suspect_us"); us > 0 {
			d := time.UnixMicro(us).Sub(res.KillTime)
			if d > 0 && (latency == 0 || d < latency) {
				latency = d
			}
		}
		lossCaused = lossCaused || strings.Contains(stat, "cause=loss")
	}
	// The replacement must have reassembled its checkpoints from peers.
	if statField(t, res.Stats[victim], "reassemblies") < 1 {
		t.Errorf("replacement stat %q: checkpoints not reassembled from peers", res.Stats[victim])
	}
	if latency <= 0 {
		t.Error("no survivor reported a positive detection latency")
	} else {
		t.Logf("detection latency (kill -> first suspicion): %v", latency)
		if bound := 5 * selfHealHeartbeat; latency > bound {
			t.Errorf("detection latency %v exceeds 5 heartbeat intervals (%v): the loss report did not fire", latency, bound)
		}
	}
	if !lossCaused {
		t.Error("no survivor reports cause=loss: the death was not detected from its socket")
	}

	checkSIGKILLTrace(t, traceDir)
}

// checkSIGKILLTrace merges the flight-recorder dumps the workers wrote
// with -trace-dir and asserts the tentpole acceptance property live (the
// golden-dump variant lives in internal/trace): the dumps of all four
// final incarnations merge into a causally consistent timeline whose
// span and instant coverage spans the whole recovery arc.
func checkSIGKILLTrace(t *testing.T, traceDir string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(traceDir, "*.c3tr"))
	if err != nil || len(paths) != 4 {
		t.Fatalf("trace dumps: %v (found %d in %s, want 4)", err, len(paths), traceDir)
	}
	var dumps []*trace.Dump
	for _, p := range paths {
		d, err := trace.ReadDump(p)
		if err != nil {
			t.Fatalf("read trace dump %s: %v", p, err)
		}
		dumps = append(dumps, d)
	}
	tl, err := trace.Merge(dumps)
	if err != nil {
		t.Fatalf("trace merge: %v", err)
	}
	st := tl.Stats()
	if st.Ranks != 4 || st.Stitched == 0 {
		t.Fatalf("trace: ranks=%d stitched=%d, want 4 ranks with cross-rank edges", st.Ranks, st.Stitched)
	}
	for _, kind := range []trace.Kind{trace.KindSuspect, trace.KindEpoch, trace.KindRespawn} {
		if st.InstantCounts[kind] == 0 {
			t.Errorf("trace has no %s events", kind)
		}
	}
	spanKinds := map[trace.Kind]bool{}
	for _, s := range tl.PhaseBreakdown() {
		spanKinds[s.Kind] = true
	}
	for _, kind := range []trace.Kind{trace.KindAgree, trace.KindReassemble, trace.KindRestore, trace.KindCommit} {
		if !spanKinds[kind] {
			t.Errorf("trace phase breakdown has no %s spans", kind)
		}
	}
	t.Logf("trace: %d events, %d stitched edges, %d orphan recvs", st.Events, st.Stitched, st.OrphanRecvs)
}

// TestSelfHealingGroupedSIGKILL drives the external-kill scenario through
// the two-level topology over real TCP: 8 processes in two checkpoint
// groups of 4, group-local rs shards plus a cross-group parity shard, the
// detector running group heartbeat rings with delegate reports and the
// inter-group relay plane. An operator SIGKILL of a non-delegate interior
// rank must be detected by its group, agreed world-wide through the
// delegates, and recovered to the failure-free checksums.
func TestSelfHealingGroupedSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test in -short mode")
	}
	const victim = 5 // group 1 interior: ranks 4..7, delegate 4
	ref := procReference(t, 8)
	res := launchSelfHeal(t, 8,
		&cluster.ExternalKillSpec{Rank: victim, AfterCheckpoints: 2},
		"-every", "2",
		"-codec", "rs", "-shards", "2", "-parity", "1",
		"-group-size", "4")

	if res.Restarts != 1 {
		t.Fatalf("restarts=%d, want exactly 1 respawned process", res.Restarts)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts=%d, want 2 (one failure, one recovery)", res.Attempts)
	}
	checkProcSums(t, res, ref)
	for r := 0; r < 8; r++ {
		stat := res.Stats[r]
		if statField(t, stat, "epochs") != 2 {
			t.Errorf("rank %d stat %q: epochs != 2", r, stat)
		}
		if statField(t, stat, "restores") != 1 {
			t.Errorf("rank %d stat %q: restores != 1", r, stat)
		}
	}
	// The replacement rebuilt its checkpoints from group-local shards.
	if statField(t, res.Stats[victim], "reassemblies") < 1 {
		t.Errorf("replacement stat %q: checkpoints not reassembled from peers", res.Stats[victim])
	}
}

// TestSelfHealingKillBeforeFirstLine: the external kill lands before the
// victim commits anything. The survivors must still detect, agree, and
// recover — this time by restarting the whole world from scratch, since no
// complete recovery line exists (a partial line of survivor commits must
// not be reassembled).
func TestSelfHealingKillBeforeFirstLine(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test in -short mode")
	}
	const victim = 2
	ref := procReference(t, 4)
	res := launchSelfHeal(t, 4,
		&cluster.ExternalKillSpec{Rank: victim, AfterCheckpoints: 0},
		"-every", "4")

	if res.Restarts != 1 {
		t.Fatalf("restarts=%d, want 1", res.Restarts)
	}
	checkProcSums(t, res, ref)
	for r := 0; r < 4; r++ {
		stat := res.Stats[r]
		// From scratch: nothing restored, nothing reassembled.
		if statField(t, stat, "restores") != 0 {
			t.Errorf("rank %d stat %q: restored despite no committed line", r, stat)
		}
		if statField(t, stat, "reassemblies") != 0 {
			t.Errorf("rank %d stat %q: reassembled a partial line", r, stat)
		}
		if statField(t, stat, "epochs") != 2 {
			t.Errorf("rank %d stat %q: epochs != 2", r, stat)
		}
	}
}

// TestMultiProcessRestartFromScratch covers the same from-scratch case
// through a worker's failure spec, with a deterministic kill position: the
// victim dies at its third pragma — exactly where line 1 would start
// (every=3) — so no rank's line 1 can complete globally. The replacement
// must trigger a whole-world from-scratch restart rather than reassemble
// the survivors' partial line.
func TestMultiProcessRestartFromScratch(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test in -short mode")
	}
	ref := procReference(t, 4)
	res := launchProcs(t, 4, "-every", "3", "-kill-rank", "1", "-kill-at", "3")
	if res.Restarts != 1 {
		t.Fatalf("restarts=%d, want 1", res.Restarts)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts=%d, want 2", res.Attempts)
	}
	checkProcSums(t, res, ref)
	for r := 0; r < 4; r++ {
		stat := res.Stats[r]
		if !strings.Contains(stat, "restores=0") {
			t.Errorf("rank %d stat %q: want restores=0 (from-scratch restart)", r, stat)
		}
		if !strings.Contains(stat, "reassemblies=0") {
			t.Errorf("rank %d stat %q: want reassemblies=0 (no line to reassemble)", r, stat)
		}
	}
}

// TestSelfHealingFailureFree: the detector plane must be pure overhead in
// a failure-free run — one attempt, epoch 1, no detections. The attempt
// also ends together: each rank's MPI mesh says goodbye as it closes, so
// a rank still finishing drops its last sends toward a closed peer at once
// instead of redialing it for the 250 ms window, one closed peer after
// another.
func TestSelfHealingFailureFree(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test in -short mode")
	}
	ref := procReference(t, 4)
	res := launchSelfHeal(t, 4, nil, "-every", "4")
	if res.Attempts != 1 || res.Restarts != 0 {
		t.Fatalf("attempts=%d restarts=%d, want 1/0", res.Attempts, res.Restarts)
	}
	checkProcSums(t, res, ref)
	for r := 0; r < 4; r++ {
		stat := res.Stats[r]
		if statField(t, stat, "epochs") != 1 || statField(t, stat, "detections") != 0 {
			t.Errorf("rank %d stat %q: want epochs=1 detections=0", r, stat)
		}
	}
	var first, last time.Time
	for r := 0; r < 4; r++ {
		at := res.DoneAt[r]
		if first.IsZero() || at.Before(first) {
			first = at
		}
		if at.After(last) {
			last = at
		}
	}
	if spread := last.Sub(first); spread > 100*time.Millisecond {
		t.Errorf("done events spread over %v (want <= 100ms): %v", spread, res.DoneAt)
	}
}
