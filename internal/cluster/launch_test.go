package cluster_test

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"c3/internal/cluster"
)

// runFloodWorker is a worker that breaks the launch: rank 0 reports a
// fatal error at once, and every other rank floods its stdout with lines
// the launcher has no use for until it is told to quit.
func runFloodWorker() {
	fs := flag.NewFlagSet("flood-worker", flag.ExitOnError)
	rank := fs.Int("rank", 0, "")
	_ = fs.Parse(os.Args[1:])
	if *rank == 0 {
		fmt.Println("error refusing to start")
	}
	go func() {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			if sc.Text() == "quit" {
				break
			}
		}
		os.Exit(0)
	}()
	if *rank == 0 {
		select {}
	}
	for i := 0; ; i++ {
		fmt.Printf("noise %d\n", i)
	}
}

// TestLaunchErrorWhileWorkerFloods is the regression test for the launcher
// hang: a Launch that fails while a worker keeps writing more lines than the
// event channel holds (64) must still return within the cleanup grace
// period. The flooding worker's stdout reader used to park on the channel
// after Launch stopped reading it, so it never reaped its process and
// cleanup waited for it forever.
func TestLaunchErrorWhileWorkerFloods(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test in -short mode")
	}
	done := make(chan error, 1)
	go func() {
		_, err := cluster.Launch(cluster.LaunchConfig{
			Ranks:   2,
			Exe:     os.Args[0],
			Env:     []string{procWorkerEnv + "=flood"},
			Timeout: time.Minute,
			Args: func(rank int, _, _ []string) []string {
				return []string{"-rank", strconv.Itoa(rank)}
			},
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "refusing to start") {
			t.Fatalf("Launch error = %v, want rank 0's startup error", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Launch did not return after failing: a worker's stdout reader is stranded")
	}
}

// runPartWorker is a scripted worker for the split-time commit count. On
// "part" it reports a commit before its rules are in ("parted"), and rank 0
// one more while split; on "heal" it reports a commit after "healed" and
// finishes the attempt.
func runPartWorker() {
	fs := flag.NewFlagSet("part-worker", flag.ExitOnError)
	rank := fs.Int("rank", 0, "")
	_ = fs.Parse(os.Args[1:])
	fmt.Println("ready")
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		switch cmd, _, _ := strings.Cut(sc.Text(), " "); cmd {
		case "part":
			fmt.Println("ckpt 0 1")
			fmt.Println("parted")
			if *rank == 0 {
				fmt.Println("ckpt 0 2")
			}
		case "heal":
			fmt.Println("healed")
			fmt.Println("ckpt 0 3")
			fmt.Println("done 0 ok")
		case "quit":
			return
		}
	}
}

// TestSplitCkptsBracketedByWorker: a rank's split-time commits are the ones
// it reports between its own "parted" and "healed". A commit it reported
// after the launcher sent "part", but before it installed the rules, was
// not made while split.
func TestSplitCkptsBracketedByWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test in -short mode")
	}
	res, err := cluster.Launch(cluster.LaunchConfig{
		Ranks:             2,
		Exe:               os.Args[0],
		Env:               []string{procWorkerEnv + "=part"},
		ExternalPartition: &cluster.ExternalPartitionSpec{GroupA: []int{1}, HealAfter: 50 * time.Millisecond},
		Timeout:           time.Minute,
		Args: func(rank int, _, _ []string) []string {
			return []string{"-rank", strconv.Itoa(rank)}
		},
	})
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	if n := res.SplitCkpts[1]; n != 0 {
		t.Errorf("minority rank 1: SplitCkpts = %d, want 0 (its only commits fell outside parted..healed)", n)
	}
	if n := res.SplitCkpts[0]; n != 1 {
		t.Errorf("rank 0: SplitCkpts = %d, want 1", n)
	}
}
