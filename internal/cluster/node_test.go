package cluster_test

import (
	"bufio"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"c3/internal/ckpt"
	"c3/internal/cluster"
	"c3/internal/sched"
)

// TestRunNodeRejectsConfig covers RunNode's up-front checks: each
// misconfiguration is refused before the node opens a socket or reads its
// pipes.
func TestRunNodeRejectsConfig(t *testing.T) {
	app := func(cluster.Env) error { return nil }
	addrs := func(n int) []string { return make([]string, n) }
	for _, tc := range []struct {
		name string
		cfg  cluster.NodeConfig
		want string
	}{
		{"rank out of range", cluster.NodeConfig{Rank: 4, Ranks: 4, App: app, ReplAddrs: addrs(4)}, "node rank 4 of 4"},
		{"capacity below ranks", cluster.NodeConfig{Ranks: 4, Capacity: 3, App: app, ReplAddrs: addrs(3)}, "capacity 3"},
		{"no application", cluster.NodeConfig{Ranks: 4, ReplAddrs: addrs(4)}, "no application"},
		{"no node mesh", cluster.NodeConfig{Ranks: 4, App: app}, "needs 4 ReplAddrs"},
		{"mesh shorter than capacity", cluster.NodeConfig{Ranks: 4, Capacity: 6, App: app, ReplAddrs: addrs(4)}, "needs 6 ReplAddrs"},
		{"disk store with spare slots", cluster.NodeConfig{Ranks: 4, Capacity: 6, App: app, ReplAddrs: addrs(6), StorePath: t.TempDir()}, "elastic membership"},
		{"disk store with ops plane", cluster.NodeConfig{Ranks: 4, App: app, ReplAddrs: addrs(4), StorePath: t.TempDir(), OpsAddr: "127.0.0.1:0"}, "ops control plane"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := cluster.RunNode(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RunNode error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// pipedNode runs RunNode in this process behind a pair of pipes, the way a
// worker process sits behind the launcher's.
type pipedNode struct {
	cmds   *io.PipeWriter
	events chan string
	done   chan error
}

func startPipedNode(cfg cluster.NodeConfig) *pipedNode {
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	cfg.In, cfg.Out = inR, outW
	n := &pipedNode{cmds: inW, events: make(chan string, 64), done: make(chan error, 1)}
	go func() {
		sc := bufio.NewScanner(outR)
		for sc.Scan() {
			n.events <- sc.Text()
		}
	}()
	go func() {
		n.done <- cluster.RunNode(cfg)
		_ = outW.Close()
	}()
	return n
}

// await returns the first event with the given prefix.
func (n *pipedNode) await(t *testing.T, prefix string, timeout time.Duration) string {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case ev := <-n.events:
			if strings.HasPrefix(ev, prefix) {
				return ev
			}
			if strings.HasPrefix(ev, "error") {
				t.Fatalf("node reported %q while awaiting %q", ev, prefix)
			}
		case <-deadline:
			t.Fatalf("no %q event within %v", prefix, timeout)
		}
	}
}

// TestReplacementJoinsAfterLateJoinCommand: a replacement that reports
// ready and gets its "join" only later must still be admitted. Ranks 0 and
// 1 run without rank 2, declare it dead (epoch 2) and ask for it; rank 2
// then starts and idles for many heartbeat intervals before "join". Its
// detector must not have drawn the survivors' state in that time: Join
// waits for an epoch newer than the one it starts from, and no epoch after
// 2 ever comes.
func TestReplacementJoinsAfterLateJoinCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node test in -short mode")
	}
	const ranks = 3
	addrs := freeTestAddrs(t, ranks)
	var sums sync.Map
	cfg := func(rank int) cluster.NodeConfig {
		return cluster.NodeConfig{
			Rank: rank, Ranks: ranks,
			ReplAddrs:  addrs,
			App:        sched.StressApp(procIters, &sums),
			Policy:     ckpt.Policy{EveryNthPragma: 4},
			SelfHeal:   &cluster.SelfHealConfig{HeartbeatInterval: 15 * time.Millisecond, JoinTimeout: 2 * time.Second},
			DialWindow: 500 * time.Millisecond,
		}
	}
	var nodes []*pipedNode
	defer func() {
		for _, n := range nodes {
			_, _ = io.WriteString(n.cmds, "quit\n")
		}
		for _, n := range nodes {
			<-n.done
		}
	}()
	for r := 0; r < 2; r++ {
		n := startPipedNode(cfg(r))
		nodes = append(nodes, n)
		n.await(t, "ready", 5*time.Second)
	}
	for _, n := range nodes {
		_, _ = io.WriteString(n.cmds, "run\n")
	}
	if ev := nodes[0].await(t, "respawn", 10*time.Second); ev != "respawn 2" {
		t.Fatalf("coordinator asked %q, want respawn 2", ev)
	}
	late := startPipedNode(cfg(2))
	nodes = append(nodes, late)
	late.await(t, "ready", 5*time.Second)
	time.Sleep(300 * time.Millisecond) // 20 heartbeat intervals
	_, _ = io.WriteString(late.cmds, "join\n")
	if ev := late.await(t, "joined", 5*time.Second); ev != "joined 2" {
		t.Fatalf("replacement reported %q, want joined 2", ev)
	}
}
