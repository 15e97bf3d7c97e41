package cluster_test

// The elastic-membership headline scenario: a real multi-process world of 4
// compute ranks grows to 6 members (two storage slots join through the ops
// control plane at recovery lines), survives an operator SIGKILL in the
// resized world, honors an operator-triggered checkpoint, and shrinks back
// to 4 by draining both storage members — all while the kernel keeps
// running and converges to the failure-free checksums. Every step is driven
// the way a human operator would drive it: HTTP verbs against the per-node
// embedded ops servers.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"c3/internal/cluster"
	"c3/internal/mpi"
	"c3/internal/ops"
)

// elasticApp is a paced deterministic workload: per-iteration state folds
// plus a BXor allreduce every third iteration. The pace only stretches wall
// time (it never touches registered state), so the reference run uses
// pace=0 while the workers run slowly enough for the ops-plane
// orchestration to land mid-flight.
func elasticApp(iters int, pace time.Duration, sums *sync.Map) func(cluster.Env) error {
	return func(env cluster.Env) error {
		st := env.State()
		it := st.Int("it")
		sum := st.Int("sum")
		if _, err := env.Restore(); err != nil {
			return err
		}
		w := env.World()
		r := env.Rank()
		for it.Get() < iters {
			i := it.Get()
			sum.Set((sum.Get()*31 + (r+1)*(i+7)) & 0x7fffffff)
			if i%3 == 2 {
				in := mpi.Int64Bytes([]int64{int64(sum.Get())})
				out := make([]byte, 8)
				if err := w.Allreduce(in, out, 1, mpi.TypeInt64, mpi.OpBXor); err != nil {
					return err
				}
				sum.Set((sum.Get()*131 ^ int(mpi.BytesInt64s(out)[0])) & 0x7fffffff)
			}
			if pace > 0 {
				time.Sleep(pace)
			}
			it.Add(1)
			if err := env.Checkpoint(); err != nil {
				return err
			}
		}
		sums.Store(r, sum.Get())
		return nil
	}
}

const (
	elasticIters = 2000
	elasticPace  = 4 * time.Millisecond
)

// elasticReference computes the failure-free checksums in-process (pace 0:
// the pace is wall-clock only and must not affect state).
func elasticReference(t *testing.T, ranks int) map[int]int {
	t.Helper()
	var sums sync.Map
	if _, err := cluster.Run(cluster.Config{
		Ranks: ranks,
		App:   elasticApp(elasticIters, 0, &sums),
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

// freeTestAddrs reserves k localhost addresses for the ops servers (the
// launcher allocates the MPI and replication planes itself).
func freeTestAddrs(t *testing.T, k int) []string {
	t.Helper()
	addrs := make([]string, 0, k)
	for i := 0; i < k; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve ops addr: %v", err)
		}
		defer ln.Close() // held until all k are bound, so no two coincide
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs
}

// opsStatus fetches and decodes GET /status from one node.
func opsStatus(addr string) (ops.Status, error) {
	var st ops.Status
	resp, err := http.Get("http://" + addr + "/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/status: %d %s", resp.StatusCode, body)
	}
	return st, json.Unmarshal(body, &st)
}

// opsPost posts a control verb; the caller decides which statuses to accept.
func opsPost(addr, path, body string) (int, string, error) {
	resp, err := http.Post("http://"+addr+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(out), nil
}

// TestMultiProcessElasticResize is PR 8's acceptance scenario. Timeline
// (all via rank 0's ops server unless noted):
//
//  1. wait for the first committed line, then POST /join twice — the
//     launcher spawns the two spare slots, each admitted by a membership
//     epoch agreement at a recovery line (4 -> 6 members);
//  2. the launcher-as-operator SIGKILLs rank 1 once both joins have landed
//     (ExternalKill.AfterJoins): the kill happens in the resized world and
//     the survivors recover on their own;
//  3. POST /checkpoint forces a line at the next pragma (verified by the
//     commit counter advancing);
//  4. POST /drain removes storage members 4 then 5 at recovery lines
//     (6 -> 4 members), each drained process exiting cleanly;
//  5. the world finishes and every rank's checksum matches the
//     failure-free in-process reference.
func TestMultiProcessElasticResize(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test in -short mode")
	}
	const ranks, capacity = 4, 6
	ref := elasticReference(t, ranks)
	opsAddrs := freeTestAddrs(t, capacity)

	orchErr := make(chan error, 1)
	go func() { orchErr <- elasticOrchestrate(t, opsAddrs[0]) }()

	res, err := cluster.Launch(cluster.LaunchConfig{
		Ranks:    ranks,
		Capacity: capacity,
		Exe:      os.Args[0],
		Env:      []string{procWorkerEnv + "=1", "GOTRACEBACK=all"},
		// The operator kill waits for both storage joins: it must land in
		// the resized 6-member world, not the launch world.
		ExternalKill: &cluster.ExternalKillSpec{Rank: 1, AfterCheckpoints: 2, AfterJoins: 2},
		Timeout:      120 * time.Second,
		Args: func(rank int, _, replAddrs []string) []string {
			return []string{
				"-rank", strconv.Itoa(rank),
				"-ranks", strconv.Itoa(ranks),
				"-capacity", strconv.Itoa(capacity),
				"-repl-peers", strings.Join(replAddrs, ","),
				"-every", "4",
				"-app", "elastic",
				"-iters", strconv.Itoa(elasticIters),
				"-pace", elasticPace.String(),
				"-ops-addr", opsAddrs[rank],
			}
		},
		Log: t.Logf,
	})
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	if oerr := <-orchErr; oerr != nil {
		t.Fatalf("orchestration: %v", oerr)
	}
	if res.Joins != 2 {
		t.Errorf("joins=%d, want 2 storage-member admissions", res.Joins)
	}
	if res.Drains != 2 {
		t.Errorf("drains=%d, want 2 graceful membership removals", res.Drains)
	}
	if res.Restarts != 1 {
		t.Errorf("restarts=%d, want exactly 1 (the operator's SIGKILL)", res.Restarts)
	}
	checkProcSums(t, res, ref)
}

// elasticOrchestrate plays the human operator against rank 0's ops server.
// It returns nil once the world has grown to 6, survived the kill, taken an
// on-demand checkpoint, and shrunk back to 4.
func elasticOrchestrate(t *testing.T, addr string) error {
	deadline := time.Now().Add(100 * time.Second)
	await := func(desc string, ok func(ops.Status) bool) (ops.Status, error) {
		for time.Now().Before(deadline) {
			if st, err := opsStatus(addr); err == nil && ok(st) {
				return st, nil
			}
			time.Sleep(25 * time.Millisecond)
		}
		return ops.Status{}, fmt.Errorf("timed out waiting for %s", desc)
	}
	// POST with retry: 409 means the backend is mid-transition (membership
	// agreement in flight, attempt restarting) — the operator tries again.
	postRetry := func(path, body string) error {
		for time.Now().Before(deadline) {
			code, out, err := opsPost(addr, path, body)
			if err == nil && code == http.StatusOK {
				return nil
			}
			if err == nil && code != http.StatusConflict {
				return fmt.Errorf("POST %s: %d %s", path, code, out)
			}
			time.Sleep(100 * time.Millisecond)
		}
		return fmt.Errorf("POST %s: retries exhausted", path)
	}

	// 1. Grow 4 -> 6 once the first line is committed.
	if _, err := await("first committed line", func(st ops.Status) bool {
		return st.Checkpoints >= 1
	}); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		if err := postRetry("/join", ""); err != nil {
			return err
		}
	}
	grown, err := await("6-member world", func(st ops.Status) bool {
		return len(st.Members) == 6
	})
	if err != nil {
		return err
	}
	t.Logf("ops: world grew to %v at membership epoch %d", grown.Members, grown.MembershipEpoch)

	// 2. The kill (launcher-side, gated on the joins) bumps the epoch past
	// the join agreements; wait for the death agreement and recovery. The
	// epoch number is the durable signal — the dead list is transient
	// (cleared as soon as the respawned rank rejoins), so a loaded machine
	// can blow straight past the window where it is non-empty. The anchor is
	// the epoch that installed the 6-member list, not the epoch of the first
	// 6-member status seen: the death agreement follows the kill within
	// milliseconds, so that status may already carry it.
	killEpoch, err := await("SIGKILL death agreement", func(st ops.Status) bool {
		return st.Epoch > grown.MembershipEpoch
	})
	if err != nil {
		return err
	}
	t.Logf("ops: epoch %d declared dead=%v in the resized world", killEpoch.Epoch, killEpoch.Dead)
	recovered, err := await("post-kill recovery progress", func(st ops.Status) bool {
		return st.Checkpoints > killEpoch.Checkpoints
	})
	if err != nil {
		return err
	}

	// 3. Scrape Prometheus metrics mid-run: the resized world is visible.
	metricsBody := ""
	for time.Now().Before(deadline) {
		resp, rerr := http.Get("http://" + addr + "/metrics")
		if rerr == nil {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				metricsBody = string(b)
				break
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	for _, want := range []string{
		"# TYPE c3_commits_total counter",
		`c3_members{rank="0"} 6`,
		"c3_membership_epoch",
		"c3_commit_seconds_total",
	} {
		if !strings.Contains(metricsBody, want) {
			return fmt.Errorf("/metrics missing %q:\n%s", want, metricsBody)
		}
	}

	// 4. Operator-triggered checkpoint: the commit counter must advance.
	if err := postRetry("/checkpoint", ""); err != nil {
		return err
	}
	if _, err := await("operator checkpoint commit", func(st ops.Status) bool {
		return st.Checkpoints > recovered.Checkpoints
	}); err != nil {
		return err
	}

	// 5. Shrink 6 -> 4: drain both storage members at recovery lines.
	for _, slot := range []int{4, 5} {
		if err := postRetry("/drain", fmt.Sprintf(`{"rank": %d}`, slot)); err != nil {
			return err
		}
		want := slot // membership must have dropped this slot
		if _, err := await(fmt.Sprintf("drain of slot %d", slot), func(st ops.Status) bool {
			for _, m := range st.Members {
				if m == want {
					return false
				}
			}
			return true
		}); err != nil {
			return err
		}
	}
	final, err := await("4-member world", func(st ops.Status) bool {
		return fmt.Sprint(st.Members) == "[0 1 2 3]"
	})
	if err != nil {
		return err
	}
	t.Logf("ops: world shrank back to %v at membership epoch %d", final.Members, final.MembershipEpoch)
	return nil
}
