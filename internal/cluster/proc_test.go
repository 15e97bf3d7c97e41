package cluster_test

// The multi-process end-to-end test: the test binary re-executes itself as
// per-rank worker processes (TestMain intercepts the worker role before
// any tests run), the launcher SIGKILLs one rank mid-run, and the world
// must recover over real TCP — the re-executed rank reassembling its
// checkpoints from its +1/+2 neighbors through the distributed replicated
// store — and converge to the failure-free checksums.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"c3/internal/ckpt"
	"c3/internal/cluster"
	"c3/internal/sched"
)

const procWorkerEnv = "C3_TEST_WORKER"

func TestMain(m *testing.M) {
	switch os.Getenv(procWorkerEnv) {
	case "1":
		runProcWorker()
		os.Exit(0)
	case "flood":
		runFloodWorker()
		os.Exit(0)
	case "part":
		runPartWorker()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// procIters is the stress workload length shared by workers and reference.
const procIters = 12

// runProcWorker is the body of a re-executed worker process.
func runProcWorker() {
	fs := flag.NewFlagSet("proc-worker", flag.ExitOnError)
	var (
		rank      = fs.Int("rank", 0, "")
		ranks     = fs.Int("ranks", 0, "")
		peers     = fs.String("peers", "", "")
		replPeers = fs.String("repl-peers", "", "")
		every     = fs.Int("every", 4, "")
		async     = fs.Bool("async", false, "")
		killRank  = fs.Int("kill-rank", -1, "")
		killRank2 = fs.Int("kill-rank2", -1, "")
		killAt    = fs.Int("kill-at", 0, "")
		killAfter = fs.Int("kill-after", 0, "")
		codec     = fs.String("codec", "", "")
		shards    = fs.Int("shards", 0, "")
		parity    = fs.Int("parity", 0, "")
		groupSz   = fs.Int("group-size", 0, "")
		heartbeat = fs.Duration("heartbeat", 15*time.Millisecond, "")
		phi       = fs.Float64("phi", 6, "")
		ackTO     = fs.Duration("ack-timeout", 0, "")
		queryTO   = fs.Duration("query-timeout", 0, "")
		queryN    = fs.Int("query-retries", 0, "")
		capacity  = fs.Int("capacity", 0, "")
		opsAddr   = fs.String("ops-addr", "", "")
		traceDir  = fs.String("trace-dir", "", "")
		app       = fs.String("app", "stress", "")
		iters     = fs.Int("iters", procIters, "")
		pace      = fs.Duration("pace", 0, "")
		storeDir  = fs.String("store", "", "")
		meetDir   = fs.String("rendezvous", "", "")
		ballastR  = fs.Int("ballast-rank", -1, "")
		ballast   = fs.Int("ballast", 0, "")
		hold      = fs.Int("hold", 0, "")
	)
	_ = fs.Parse(os.Args[1:])

	var sums sync.Map
	workload := sched.StressApp(procIters, &sums)
	if *app == "elastic" {
		workload = elasticApp(*iters, *pace, &sums)
	}
	nc := cluster.NodeConfig{
		Rank:      *rank,
		Ranks:     *ranks,
		Capacity:  *capacity,
		OpsAddr:   *opsAddr,
		TraceDir:  *traceDir,
		MPIAddrs:  strings.Split(*peers, ","),
		ReplAddrs: strings.Split(*replPeers, ","),
		StorePath: *storeDir,
		App:       workload,
		Policy:    ckpt.Policy{EveryNthPragma: *every, AsyncCommit: *async},
		SelfHeal:  &cluster.SelfHealConfig{HeartbeatInterval: *heartbeat, PhiThreshold: *phi},
		In:        os.Stdin,
		Out:       os.Stdout,
		Result: func() string {
			v, ok := sums.Load(*rank)
			if !ok {
				return "?"
			}
			return strconv.Itoa(v.(int))
		},
	}
	nc.AckTimeout, nc.QueryTimeout, nc.QueryRetries = *ackTO, *queryTO, *queryN
	nc.Codec, nc.DataShards, nc.ParityShards = *codec, *shards, *parity
	nc.GroupSize = *groupSz
	if os.Getenv("C3_TEST_TRACE") != "" {
		start := time.Now()
		nc.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "worker[r%d t=%7dus] "+format+"\n",
				append([]any{*rank, time.Since(start).Microseconds()}, args...)...)
		}
	}
	if *killRank == *rank || *killRank2 == *rank {
		nc.Kill = &cluster.FailureSpec{Rank: *rank, AtPragma: *killAt, AfterCheckpoints: *killAfter}
	}
	meet := &rendezvousEnv{dir: *meetDir, self: *rank}
	switch {
	case *meetDir == "":
	case *hold > 0 && *rank == *ballastR:
		meet.markAfter = *hold
	case *hold > 0 && *rank == *killRank:
		meet.waitBefore, meet.waitFor = *hold, *ballastR
	case *killRank2 >= 0 && nc.Kill != nil:
		meet.markBefore, meet.waitBefore, meet.waitFor = *killAt, *killAt, *killRank+*killRank2-*rank
	}
	nc.App = func(env cluster.Env) error {
		if *rank == *ballastR {
			// Extra checkpointed state: this rank's commits ship slowly.
			env.State().Bytes("ballast").SetData(make([]byte, *ballast))
		}
		if meet.dir != "" {
			meet.Env, meet.pragmas = env, 0
			env = meet
		}
		return workload(env)
	}
	if err := cluster.RunNode(nc); err != nil {
		fmt.Fprintf(os.Stderr, "proc worker rank %d: %v\n", *rank, err)
		os.Exit(1)
	}
}

// rendezvousEnv orders pragmas across worker processes through marker
// files in a shared directory: before its markBefore-th pragma, or after
// its markAfter-th, a rank leaves its mark; before its waitBefore-th it
// waits for waitFor's mark. Later attempts find every mark already there.
type rendezvousEnv struct {
	cluster.Env
	dir                               string
	self, waitFor                     int
	markBefore, markAfter, waitBefore int
	pragmas                           int
}

func (e *rendezvousEnv) mark() error {
	return os.WriteFile(filepath.Join(e.dir, fmt.Sprintf("rank%d", e.self)), nil, 0o644)
}

func (e *rendezvousEnv) Checkpoint() error {
	e.pragmas++
	if e.pragmas == e.markBefore {
		if err := e.mark(); err != nil {
			return err
		}
	}
	if e.pragmas == e.waitBefore {
		for {
			if _, err := os.Stat(filepath.Join(e.dir, fmt.Sprintf("rank%d", e.waitFor))); err == nil {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := e.Env.Checkpoint(); err != nil {
		return err
	}
	if e.pragmas == e.markAfter {
		return e.mark()
	}
	return nil
}

// procReference computes the failure-free per-rank checksums in-process.
func procReference(t *testing.T, ranks int) map[int]int {
	t.Helper()
	var sums sync.Map
	if _, err := cluster.Run(cluster.Config{
		Ranks: ranks,
		App:   sched.StressApp(procIters, &sums),
		Seed:  1,
	}); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	ref := make(map[int]int, ranks)
	for r := 0; r < ranks; r++ {
		v, ok := sums.Load(r)
		if !ok {
			t.Fatalf("reference run produced no sum for rank %d", r)
		}
		ref[r] = v.(int)
	}
	return ref
}

func launchProcs(t *testing.T, ranks int, extra ...string) *cluster.LaunchResult {
	t.Helper()
	res, err := cluster.Launch(procLaunchConfig(t, ranks, extra...))
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	return res
}

// procLaunchConfig launches ranks proc workers, each given the extra worker
// flags.
func procLaunchConfig(t *testing.T, ranks int, extra ...string) cluster.LaunchConfig {
	return cluster.LaunchConfig{
		Ranks:   ranks,
		Exe:     os.Args[0],
		Env:     []string{procWorkerEnv + "=1", "GOTRACEBACK=all"},
		Timeout: 90 * time.Second,
		Args: func(rank int, mpiAddrs, replAddrs []string) []string {
			args := []string{
				"-rank", strconv.Itoa(rank),
				"-ranks", strconv.Itoa(ranks),
				"-peers", strings.Join(mpiAddrs, ","),
				"-repl-peers", strings.Join(replAddrs, ","),
			}
			return append(args, extra...)
		},
		Log: t.Logf,
	}
}

func checkProcSums(t *testing.T, res *cluster.LaunchResult, ref map[int]int) {
	t.Helper()
	for r, want := range ref {
		got, err := strconv.Atoi(res.Results[r])
		if err != nil {
			t.Fatalf("rank %d reported %q: %v", r, res.Results[r], err)
		}
		if got != want {
			t.Errorf("rank %d checksum = %d, want %d (failure-free reference)", r, got, want)
		}
	}
}

// TestMultiProcessFailureFree runs a 4-process world over TCP with no
// failures and checks the checksums against the in-process reference.
func TestMultiProcessFailureFree(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test in -short mode")
	}
	ref := procReference(t, 4)
	res := launchProcs(t, 4)
	if res.Attempts != 1 || res.Restarts != 0 {
		t.Fatalf("attempts=%d restarts=%d, want 1/0", res.Attempts, res.Restarts)
	}
	checkProcSums(t, res, ref)
}

// TestMultiProcessSIGKILLRecovery is the headline acceptance scenario: a
// 4-process localhost world survives a real SIGKILL of one rank
// mid-logging-phase, re-executes it, reassembles its checkpoints from
// +1/+2 neighbors over TCP (diskless), and converges to the failure-free
// checksums.
func TestMultiProcessSIGKILLRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test in -short mode")
	}
	ref := procReference(t, 4)
	// every=4: line 2 starts at pragma 8; the victim freezes at pragma 9 —
	// inside or just past line 2's logging phase — and is SIGKILLed there.
	// Line 1, committed and replicated long before, guarantees a recovery
	// line exists whether or not line 2's commit raced the kill.
	res := launchProcs(t, 4, "-every", "4", "-kill-rank", "1", "-kill-at", "9", "-kill-after", "2")
	if res.Restarts != 1 {
		t.Fatalf("restarts=%d, want exactly 1 re-executed process", res.Restarts)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts=%d, want 2 (one failure, one recovery)", res.Attempts)
	}
	checkProcSums(t, res, ref)

	// Recovery provenance: every rank must have restored from the recovery
	// line (not re-run from scratch), and the re-executed rank must have
	// rebuilt at least one checkpoint from peer fragments over the wire.
	for r := 0; r < 4; r++ {
		stat := res.Stats[r]
		if !strings.Contains(stat, "restores=1") {
			t.Errorf("rank %d stat %q: world did not restore from the recovery line", r, stat)
		}
	}
	checkSurvivorsDetected(t, res, 4, 1)
	if stat := res.Stats[1]; !strings.Contains(stat, "reassemblies=") ||
		strings.Contains(stat, "reassemblies=0") {
		t.Errorf("re-executed rank reported %q: checkpoint was not reassembled from peers", stat)
	}
}

// TestMultiProcessSIGKILLRecoveryDisk drives the headline scenario through
// RunNode's DiskStore branch: every worker shares one checkpoint directory
// instead of the diskless replicated store.
func TestMultiProcessSIGKILLRecoveryDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test in -short mode")
	}
	ref := procReference(t, 4)
	res := launchProcs(t, 4, "-every", "4", "-store", t.TempDir(),
		"-kill-rank", "1", "-kill-at", "9", "-kill-after", "2")
	if res.Restarts != 1 || res.Attempts != 2 {
		t.Fatalf("restarts=%d attempts=%d, want 1/2", res.Restarts, res.Attempts)
	}
	checkProcSums(t, res, ref)
	for r := 0; r < 4; r++ {
		if stat := res.Stats[r]; !strings.Contains(stat, "restores=1") {
			t.Errorf("rank %d stat %q: world did not restore from the recovery line", r, stat)
		}
	}
	checkSurvivorsDetected(t, res, 4, 1)
}

// checkSurvivorsDetected asserts that every rank but the victim detected
// the death itself and moved past the launch epoch: the workers, not the
// launcher, drove the recovery.
func checkSurvivorsDetected(t *testing.T, res *cluster.LaunchResult, ranks, victim int) {
	t.Helper()
	for r := 0; r < ranks; r++ {
		if r == victim {
			continue
		}
		stat := res.Stats[r]
		if statField(t, stat, "detections") < 1 || statField(t, stat, "epochs") < 2 {
			t.Errorf("survivor rank %d stat %q: want detections>=1 epochs>=2", r, stat)
		}
	}
}

// TestMultiProcessEpochReleasesBlockedCommit: the agreed epoch must
// release a survivor's commit that waits for the SIGKILLed holder's
// acknowledgment. The ack timeout is far above the launch timeout.
//
// The blocked committer is rank 3, then rank 0. On rank 3 the
// replacement's wipe notice also ends the wait, because the coordinator
// (rank 0) has already asked for it. On rank 0 only the store-epoch advance
// in abandon can end it: the coordinator asks for the replacement only
// after its own attempt is torn down.
func TestMultiProcessEpochReleasesBlockedCommit(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test in -short mode")
	}
	ref := procReference(t, 4)
	for _, committer := range []int{3, 0} {
		t.Run(fmt.Sprintf("committer-%d", committer), func(t *testing.T) {
			// Line 2 starts at pragma 6; rank 1 starts it last (it holds
			// until the committer has passed pragma 6) and dies at pragma 7,
			// in an iteration with no collective, so nothing waits on the
			// committer's commit of line 2. That commit ships 32 MiB of
			// ballast to the committer's two ring successors, rank 1 among
			// them, and is still in flight when rank 1 dies: rank 1 never
			// acknowledges it.
			cfg := procLaunchConfig(t, 4, "-every", "3", "-ack-timeout", "10m",
				"-kill-rank", "1", "-kill-at", "7", "-kill-after", "2",
				"-ballast-rank", strconv.Itoa(committer), "-ballast", strconv.Itoa(32<<20),
				"-hold", "6", "-rendezvous", t.TempDir())
			cfg.Timeout = 20 * time.Second
			res, err := cluster.Launch(cfg)
			if err != nil {
				t.Fatalf("launch: %v", err)
			}
			if res.Restarts != 1 {
				t.Fatalf("restarts=%d, want 1", res.Restarts)
			}
			checkProcSums(t, res, ref)
		})
	}
}

// TestMultiProcessSIGKILLRecoveryAsync drives the same scenario through
// the asynchronous commit pipeline.
func TestMultiProcessSIGKILLRecoveryAsync(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test in -short mode")
	}
	ref := procReference(t, 4)
	res := launchProcs(t, 4, "-every", "4", "-async", "-kill-rank", "2", "-kill-at", "9", "-kill-after", "2")
	if res.Restarts != 1 {
		t.Fatalf("restarts=%d, want 1", res.Restarts)
	}
	checkProcSums(t, res, ref)
}

// TestMultiProcessDualSIGKILLRS is the erasure-coding acceptance scenario:
// a 6-process world runs the diskless store under -codec=rs (k=3, m=2 —
// every line lives only as five shards on five distinct ring successors,
// no full copies anywhere), two ranks are SIGKILLed near-simultaneously at
// the same pragma, both are re-executed, reassemble their checkpoints from
// the surviving three-of-five shards over TCP, and the world converges to
// the failure-free checksums.
func TestMultiProcessDualSIGKILLRS(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test in -short mode")
	}
	ref := procReference(t, 6)
	res := launchProcs(t, 6,
		"-every", "4",
		"-codec", "rs", "-shards", "3", "-parity", "2",
		"-kill-rank", "1", "-kill-rank2", "3", "-kill-at", "9", "-kill-after", "2",
		"-query-retries", "3", "-rendezvous", t.TempDir())
	if res.Restarts != 2 {
		t.Fatalf("restarts=%d, want 2 re-executed processes", res.Restarts)
	}
	checkProcSums(t, res, ref)
	// Both replacements must have rebuilt state from peer shards; with an
	// erasure codec even the survivors reassemble their own lines over the
	// wire (no full local copies exist).
	for _, r := range []int{1, 3} {
		stat := res.Stats[r]
		if !strings.Contains(stat, "restores=1") {
			t.Errorf("rank %d stat %q: did not restore from the recovery line", r, stat)
		}
		if !strings.Contains(stat, "reassemblies=") || strings.Contains(stat, "reassemblies=0") {
			t.Errorf("rank %d stat %q: checkpoint was not reassembled from shards", r, stat)
		}
	}
}

// TestMultiProcessSIGKILLRecoveryXOR drives the single-kill headline
// scenario through the xor codec (k=4 data + 1 parity on five distinct
// successors, tolerates exactly the one loss this test injects).
func TestMultiProcessSIGKILLRecoveryXOR(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test in -short mode")
	}
	ref := procReference(t, 6)
	res := launchProcs(t, 6,
		"-every", "4",
		"-codec", "xor", "-shards", "4",
		"-kill-rank", "2", "-kill-at", "9", "-kill-after", "2",
		"-query-retries", "3")
	if res.Restarts != 1 {
		t.Fatalf("restarts=%d, want 1", res.Restarts)
	}
	checkProcSums(t, res, ref)
}
