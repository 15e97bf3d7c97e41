// Command c3run executes one benchmark kernel under the C3 protocol layer,
// optionally injecting a fail-stop failure and recovering from the last
// committed recovery line.
//
// Usage:
//
//	c3run -kernel CG -ranks 8 -every 5
//	c3run -kernel LU -ranks 4 -fail-rank 2 -fail-pragma 7 -store /tmp/ckpts
//	c3run -kernel HPL -ranks 4 -direct        # no protocol layer (baseline)
//	c3run -list                               # show available kernels
package main

import (
	"flag"
	"fmt"
	"os"

	"c3/internal/apps"
	"c3/internal/ckpt"
	"c3/internal/cluster"
	"c3/internal/stable"
)

func main() {
	var (
		kernel     = flag.String("kernel", "CG", "kernel to run (see -list)")
		class      = flag.String("class", "W", "problem class: S, W, or A")
		ranks      = flag.Int("ranks", 4, "number of ranks")
		every      = flag.Int("every", 0, "take a checkpoint every N pragmas (0: never)")
		direct     = flag.Bool("direct", false, "run without the protocol layer")
		failRank   = flag.Int("fail-rank", -1, "rank to fail-stop (-1: no failure)")
		failPragma = flag.Int("fail-pragma", 1, "pragma count at which the failure fires")
		storeDir   = flag.String("store", "", "checkpoint directory (default: in-memory)")
		list       = flag.Bool("list", false, "list kernels and exit")
	)
	flag.Parse()

	if *list {
		for _, name := range apps.Names() {
			k, _ := apps.Lookup(name)
			fmt.Printf("%-8s %s\n", name, k.Description)
		}
		return
	}

	k, ok := apps.Lookup(*kernel)
	if !ok {
		fatalf("unknown kernel %q (use -list)", *kernel)
	}
	p := k.Defaults(apps.Class(*class))

	var store stable.Store = stable.NewMemStore()
	if *storeDir != "" {
		var err error
		store, err = stable.NewDiskStore(*storeDir)
		if err != nil {
			fatalf("open store: %v", err)
		}
	}

	out := apps.NewOutput()
	cfg := cluster.Config{
		Ranks:  *ranks,
		App:    k.App(p, out),
		Store:  store,
		Direct: *direct,
		Policy: ckpt.Policy{EveryNthPragma: *every},
	}
	if *failRank >= 0 {
		cfg.Failures = []cluster.FailureSpec{{Rank: *failRank, AtPragma: *failPragma}}
	}

	res, err := cluster.Run(cfg)
	if err != nil {
		fatalf("run: %v", err)
	}

	fmt.Printf("kernel %s class %s on %d ranks: %v (%d attempt(s))\n",
		*kernel, *class, *ranks, res.LastAttemptElapsed, res.Attempts)
	for r := 0; r < *ranks; r++ {
		if v, ok := out.Checksum(r); ok {
			fmt.Printf("  rank %d checksum: %.6f\n", r, v)
		}
	}
	if !*direct {
		var s ckpt.Stats
		for _, rs := range res.Stats {
			s.Sends += rs.Stats.Sends
			s.PiggybackBytes += rs.Stats.PiggybackBytes
			s.CheckpointsTaken += rs.Stats.CheckpointsTaken
			s.CheckpointBytes += rs.Stats.CheckpointBytes
			s.LateLogged += rs.Stats.LateLogged
			s.EarlyRecorded += rs.Stats.EarlyRecorded
			s.ReplayedLate += rs.Stats.ReplayedLate
			s.SuppressedSends += rs.Stats.SuppressedSends
		}
		fmt.Printf("protocol: sends=%d piggyback=%dB checkpoints=%d (%s MB) late-logged=%d early-recorded=%d replayed=%d suppressed=%d\n",
			s.Sends, s.PiggybackBytes, s.CheckpointsTaken,
			fmtMB(s.CheckpointBytes), s.LateLogged, s.EarlyRecorded, s.ReplayedLate, s.SuppressedSends)
	}
}

func fmtMB(b uint64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "c3run: "+format+"\n", args...)
	os.Exit(1)
}
