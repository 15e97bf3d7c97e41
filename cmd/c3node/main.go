// Command c3node runs the reproduction as a real multi-process cluster:
// one OS process per rank, TCP between ranks, and real SIGKILL as the
// failure injector. The same binary is both the launcher (default) and the
// per-rank worker (-worker, spawned by re-exec), mirroring how an MPI
// launcher re-executes its own image on every node.
//
// Usage:
//
//	c3node -ranks 4 -kernel CG -class S -every 3
//	    launch 4 worker processes over TCP with the diskless replicated
//	    store and run CG to completion
//
//	c3node -ranks 4 -kernel CG -class S -every 3 -kill rank=1,at=5,after=1
//	    additionally SIGKILL rank 1's process at its 5th pragma once it has
//	    started at least one checkpoint (mid-logging-phase); the survivors'
//	    failure detectors notice (the node mesh reports the dead process's
//	    closed sockets; heartbeats catch what leaves no such trace), agree
//	    on an epoch-numbered dead set, elect a coordinator and ask the
//	    launcher — which only spawns and kills — to re-execute the dead
//	    rank. It reassembles its checkpoints from its +1/+2 neighbors over
//	    TCP, and the world recovers from the last committed recovery line.
//	    The summary's detect-cause= names the path that caught the death.
//	    Heartbeat cadence and suspicion threshold are tuned with
//	    -heartbeat and -phi; the store's recovery-query behavior with
//	    -ack-timeout, -query-timeout and -query-retries.
//
//	c3node -ranks 4 -kernel CG -class S -every 3 -external-kill rank=1,after=2
//	    the same recovery with no failure spec inside any worker: the
//	    launcher SIGKILLs rank 1 (acting as an outside operator) once that
//	    rank has committed 2 checkpoints
//
//	c3node -ranks 5 -kernel CG -class S -every 3 \
//	       -partition a=3+4,after=2,heal=3s
//	    partition-tolerance demo: once ranks 3+4 have committed 2
//	    checkpoints, the launcher severs them from the rest (symmetric
//	    blackhole on every TCP mesh). The majority side commits an epoch
//	    declaring them dead and keeps computing; the severed minority
//	    fences — zero checkpoint commits while split, because the quorum
//	    rule proves it cannot hold a majority. 3s later the launcher heals
//	    the split; the fenced ranks learn the newer epoch from their rejoin
//	    pings, rejoin through the state-snapshot path, and the final
//	    checksums converge
//
//	c3node -ranks 4 -kernel CG -class S -spare 2 -ops-base 9300
//	    elastic membership: two spare storage-member slots and an embedded
//	    ops/metrics HTTP server per rank (rank r on 127.0.0.1:9300+r).
//	    POST /join grows the world at the next recovery line (the launcher
//	    spawns a spare, the members admit it by a membership epoch
//	    agreement); POST /drain {"rank": N} shrinks it; POST /checkpoint
//	    forces a line; GET /status, /epoch, /line, /membership are JSON
//	    snapshots and GET /metrics is Prometheus text exposition
//
//	c3node -ranks 4 -kernel LU -store /tmp/ckpts ...
//	    use a shared-directory disk store instead of the diskless
//	    replicated store; recovery still runs through the detectors, so
//	    -spare, -ops-base, -partition, -codec and -group-size, which need
//	    the diskless store, are rejected
//
// The launcher's final line, "checksums=[...]", is identical between a
// failure-free run and a run that survived a SIGKILL — the convergence
// check the CI smoke jobs perform. With -v, workers log to stderr with
// structured per-rank prefixes ("c3node[r2 t=...us]"), so interleaved
// multi-process detector logs stay attributable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"c3/internal/apps"
	"c3/internal/ckpt"
	"c3/internal/cluster"
	"c3/internal/stable"
)

func main() {
	if hasFlag("-worker") {
		workerMain()
		return
	}
	launcherMain()
}

func hasFlag(name string) bool {
	for _, a := range os.Args[1:] {
		if a == name || a == name+"=true" || strings.TrimPrefix(a, "-") == strings.TrimPrefix(name, "-") {
			return true
		}
	}
	return false
}

// parseKill parses "rank=R,at=P[,after=K]".
func parseKill(s string) (*cluster.FailureSpec, error) {
	if s == "" {
		return nil, nil
	}
	spec := &cluster.FailureSpec{AtPragma: 1}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("malformed kill spec component %q", part)
		}
		v, err := strconv.Atoi(kv[1])
		if err != nil {
			return nil, fmt.Errorf("kill spec %q: %w", part, err)
		}
		switch kv[0] {
		case "rank":
			spec.Rank = v
		case "at":
			spec.AtPragma = v
		case "after":
			spec.AfterCheckpoints = v
		default:
			return nil, fmt.Errorf("unknown kill spec key %q", kv[0])
		}
	}
	return spec, nil
}

// parseExternalKill parses "rank=R[,after=K][,joins=J]" (K = committed
// checkpoints observed before the operator's SIGKILL, 0 kills right after
// launch; J additionally waits for J spare-slot membership admissions, the
// elastic "kill in the resized world" demo).
func parseExternalKill(s string) (*cluster.ExternalKillSpec, error) {
	if s == "" {
		return nil, nil
	}
	spec := &cluster.ExternalKillSpec{}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("malformed external-kill component %q", part)
		}
		v, err := strconv.Atoi(kv[1])
		if err != nil {
			return nil, fmt.Errorf("external-kill %q: %w", part, err)
		}
		switch kv[0] {
		case "rank":
			spec.Rank = v
		case "after":
			spec.AfterCheckpoints = v
		case "joins":
			spec.AfterJoins = v
		default:
			return nil, fmt.Errorf("unknown external-kill key %q (rank, after, joins)", kv[0])
		}
	}
	return spec, nil
}

func launcherMain() {
	var (
		ranks    = flag.Int("ranks", 4, "number of ranks (one process each)")
		kernel   = flag.String("kernel", "CG", "kernel to run (see c3run -list)")
		class    = flag.String("class", "S", "problem class: S, W, or A")
		every    = flag.Int("every", 3, "take a checkpoint every N pragmas")
		async    = flag.Bool("async", false, "asynchronous commit pipeline")
		kill     = flag.String("kill", "", "failure spec rank=R,at=P[,after=K]: SIGKILL that rank's process at that pragma")
		storeDir = flag.String("store", "", "shared checkpoint directory (default: diskless replicated store over TCP)")
		codec    = flag.String("codec", "dup", "diskless-store fragment codec: dup (full +1/+2 replication), xor (k+1 single parity), rs (Reed-Solomon k+m)")
		shards   = flag.Int("shards", 0, "codec data shards k (0 = per-codec default: dup 2, xor 4, rs 4)")
		parity   = flag.Int("parity", 0, "codec parity shards m (0 = default: rs 2; xor always 1; dup none)")
		groupSz  = flag.Int("group-size", 0, "two-level topology: partition ranks into checkpoint groups of this many slots (group-local shards + cross-group parity, group heartbeat rings and delegate relays; 0 = flat)")
		spare    = flag.Int("spare", 0, "spare storage-member slots beyond the compute world (elastic membership)")
		opsBase  = flag.Int("ops-base", 0, "embedded ops/metrics HTTP server base port: rank r serves on 127.0.0.1:(base+r); 0 disables")
		opsDebug = flag.Bool("ops-debug", false, "expose net/http/pprof and runtime/trace start/stop verbs on the ops servers (requires -ops-base)")
		traceDir = flag.String("trace-dir", "", "flight-recorder dump directory: each rank writes rank<N>.c3tr on epoch/fence/restore/exit (merge with c3trace)")
		extKill  = flag.String("external-kill", "", "operator SIGKILL rank=R[,after=K committed checkpoints][,joins=J spare admissions]")
		part     = flag.String("partition", "", "network split a=R+R..[,after=K committed checkpoints][,heal=DURATION]")
		hb       = flag.Duration("heartbeat", 25*time.Millisecond, "failure-detector heartbeat interval")
		phi      = flag.Float64("phi", 5, "failure-detector accrual suspicion threshold")
		ackTO    = flag.Duration("ack-timeout", 0, "replicated store: neighbor ack timeout (0 = default 5s)")
		queryTO  = flag.Duration("query-timeout", 0, "replicated store: recovery query timeout (0 = default 3s)")
		queryN   = flag.Int("query-retries", 0, "replicated store: recovery query sweeps (0 = default 1)")
		jsonOut  = flag.String("json", "", "additionally write the run summary to this file as JSON (CI artifacts)")
		verbose  = flag.Bool("v", false, "log launcher and worker progress to stderr (structured per-rank prefixes)")
	)
	flag.Parse()

	if _, ok := apps.Lookup(*kernel); !ok {
		fatalf("unknown kernel %q (use c3run -list)", *kernel)
	}
	killSpec, err := parseKill(*kill)
	if err != nil {
		fatalf("%v", err)
	}
	extKillSpec, err := parseExternalKill(*extKill)
	if err != nil {
		fatalf("%v", err)
	}
	var partSpec *cluster.ExternalPartitionSpec
	if *part != "" {
		partSpec, err = cluster.ParsePartitionSpec(*part)
		if err != nil {
			fatalf("%v", err)
		}
	}
	if *spare < 0 {
		fatalf("-spare must be non-negative")
	}
	if *opsDebug && *opsBase == 0 {
		fatalf("-ops-debug requires -ops-base (the debug verbs live on the ops servers)")
	}
	if _, err := stable.NewCodec(*codec, *shards, *parity); err != nil {
		fatalf("%v", err)
	}
	if *codec != "dup" && *storeDir != "" {
		fatalf("-codec applies to the diskless replicated store (drop -store)")
	}
	if *groupSz < 0 {
		fatalf("-group-size must be non-negative")
	}
	if *groupSz > 0 && *storeDir != "" {
		fatalf("-group-size applies to the diskless replicated store (drop -store)")
	}
	if *spare > 0 && *storeDir != "" {
		fatalf("-spare needs the diskless replicated store: membership places shards (drop -store)")
	}
	if *opsBase != 0 && *storeDir != "" {
		fatalf("-ops-base needs the diskless replicated store: the ops plane reads it (drop -store)")
	}
	if partSpec != nil && *storeDir != "" {
		fatalf("-partition needs the diskless replicated store: only its commits are quorum-fenced (drop -store)")
	}

	capacity := *ranks + *spare
	cfg := cluster.LaunchConfig{
		Ranks:             *ranks,
		Capacity:          capacity,
		ExternalKill:      extKillSpec,
		ExternalPartition: partSpec,
		Args: func(rank int, mpiAddrs, replAddrs []string) []string {
			args := []string{
				"-worker",
				"-rank", strconv.Itoa(rank),
				"-ranks", strconv.Itoa(*ranks),
				"-capacity", strconv.Itoa(capacity),
				"-peers", strings.Join(mpiAddrs, ","),
				"-repl-peers", strings.Join(replAddrs, ","),
				"-kernel", *kernel,
				"-heartbeat", hb.String(),
				"-phi", strconv.FormatFloat(*phi, 'g', -1, 64),
				"-class", *class,
				"-every", strconv.Itoa(*every),
			}
			if *opsBase != 0 {
				args = append(args, "-ops-addr", fmt.Sprintf("127.0.0.1:%d", *opsBase+rank))
			}
			if *opsDebug {
				args = append(args, "-ops-debug")
			}
			if *traceDir != "" {
				args = append(args, "-trace-dir", *traceDir)
			}
			if *async {
				args = append(args, "-async")
			}
			if *storeDir != "" {
				args = append(args, "-store", *storeDir)
			} else {
				args = append(args, "-codec", *codec,
					"-shards", strconv.Itoa(*shards),
					"-parity", strconv.Itoa(*parity))
				if *groupSz > 0 {
					args = append(args, "-group-size", strconv.Itoa(*groupSz))
				}
			}
			if *ackTO > 0 {
				args = append(args, "-ack-timeout", ackTO.String())
			}
			if *queryTO > 0 {
				args = append(args, "-query-timeout", queryTO.String())
			}
			if *queryN > 0 {
				args = append(args, "-query-retries", strconv.Itoa(*queryN))
			}
			if killSpec != nil && killSpec.Rank == rank {
				args = append(args, "-kill", *kill)
			}
			if *verbose {
				args = append(args, "-v")
			}
			return args
		},
	}
	if *verbose {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "c3node: "+format+"\n", args...)
		}
	}

	res, err := cluster.Launch(cfg)
	if err != nil {
		fatalf("launch: %v", err)
	}
	fmt.Printf("kernel %s class %s on %d processes: %d attempt(s), %d re-exec(s)\n",
		*kernel, *class, *ranks, res.Attempts, res.Restarts)
	if *spare > 0 {
		fmt.Printf("  membership: joins=%d drains=%d (compute %d, capacity %d)\n",
			res.Joins, res.Drains, *ranks, capacity)
	}
	printFromScratch(res, *ranks)
	printRecoverySummary(res, *ranks)
	if partSpec != nil {
		printPartitionSummary(res, partSpec)
	}
	sums := make([]string, *ranks)
	for r := 0; r < *ranks; r++ {
		sums[r] = res.Results[r]
		fmt.Printf("  rank %d checksum: %s\n", r, sums[r])
	}
	fmt.Printf("checksums=[%s]\n", strings.Join(sums, ","))
	if *jsonOut != "" {
		writeJSONSummary(*jsonOut, *kernel, *class, *ranks, capacity, res, sums)
	}
}

// runSummary is the -json artifact: the stat/latency summary the CI jobs
// archive (mirrors c3bench -json).
type runSummary struct {
	Kernel    string         `json:"kernel"`
	Class     string         `json:"class"`
	Ranks     int            `json:"ranks"`
	Capacity  int            `json:"capacity"`
	Attempts  int            `json:"attempts"`
	Restarts  int            `json:"restarts"`
	Joins     int            `json:"joins"`
	Drains    int            `json:"drains"`
	Stats     map[int]string `json:"stats,omitempty"`
	Checksums []string       `json:"checksums"`
}

func writeJSONSummary(path, kernel, class string, ranks, capacity int, res *cluster.LaunchResult, sums []string) {
	data, err := json.MarshalIndent(runSummary{
		Kernel:    kernel,
		Class:     class,
		Ranks:     ranks,
		Capacity:  capacity,
		Attempts:  res.Attempts,
		Restarts:  res.Restarts,
		Joins:     res.Joins,
		Drains:    res.Drains,
		Stats:     res.Stats,
		Checksums: sums,
	}, "", "  ")
	if err != nil {
		fatalf("encode json: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatalf("write %s: %v", path, err)
	}
}

// printFromScratch names each rank whose final attempt found no complete
// recovery line and re-executed from the beginning.
func printFromScratch(res *cluster.LaunchResult, ranks int) {
	for r := 0; r < ranks; r++ {
		for _, f := range strings.Fields(res.Stats[r]) {
			if v, ok := strings.CutPrefix(f, "fromscratch="); ok && v != "0" {
				fmt.Printf("  rank %d: restarted from scratch (no complete recovery line)\n", r)
			}
		}
	}
}

// printRecoverySummary reports the detection -> agreement -> restore-start
// latency decomposition measured by the workers (EXPERIMENTS.md table 8).
func printRecoverySummary(res *cluster.LaunchResult, ranks int) {
	for r := 0; r < ranks; r++ {
		stat := res.Stats[r]
		if stat == "" {
			continue
		}
		fields := map[string]int64{}
		cause := "none"
		for _, f := range strings.Fields(stat) {
			if kv := strings.SplitN(f, "=", 2); len(kv) == 2 {
				if v, err := strconv.ParseInt(kv[1], 10, 64); err == nil {
					fields[kv[0]] = v
				} else if kv[0] == "cause" {
					cause = kv[1]
				}
			}
		}
		if fields["suspect_us"] == 0 {
			continue
		}
		line := fmt.Sprintf("  rank %d: detections=%d epochs=%d detect-cause=%s agree=+%dus restore-start=+%dus",
			r, fields["detections"], fields["epochs"], cause, fields["agree_us"], fields["restore_us"])
		if !res.KillTime.IsZero() {
			detect := time.UnixMicro(fields["suspect_us"]).Sub(res.KillTime)
			line += fmt.Sprintf(" detect-latency=%v", detect.Round(10*time.Microsecond))
		}
		fmt.Println(line)
	}
}

// printPartitionSummary reports the split's timeline and the per-side
// checkpoint commits observed while the network was partitioned: the
// minority (GroupA) side must show zero — its ranks were fenced
// (EXPERIMENTS.md table 10).
func printPartitionSummary(res *cluster.LaunchResult, spec *cluster.ExternalPartitionSpec) {
	if res.PartTime.IsZero() {
		fmt.Println("  partition: never installed (run ended first)")
		return
	}
	inA := make(map[int]bool, len(spec.GroupA))
	for _, r := range spec.GroupA {
		inA[r] = true
	}
	var minority, majority int
	for r, n := range res.SplitCkpts {
		if inA[r] {
			minority += n
		} else {
			majority += n
		}
	}
	line := fmt.Sprintf("  partition: group %s severed; split-time commits minority=%d majority=%d",
		cluster.FormatGroup(spec.GroupA), minority, majority)
	if !res.HealTime.IsZero() {
		line += fmt.Sprintf(" healed-after=%v", res.HealTime.Sub(res.PartTime).Round(time.Millisecond))
	}
	fmt.Println(line)
}

func workerMain() {
	fs := flag.NewFlagSet("c3node-worker", flag.ExitOnError)
	var (
		_         = fs.Bool("worker", true, "worker mode (internal)")
		rank      = fs.Int("rank", 0, "this process's rank")
		ranks     = fs.Int("ranks", 1, "world size")
		capacity  = fs.Int("capacity", 0, "membership slot count (0 = ranks)")
		opsAddr   = fs.String("ops-addr", "", "embedded ops/metrics HTTP listen address")
		opsDebug  = fs.Bool("ops-debug", false, "expose pprof and runtime/trace verbs on the ops server")
		traceDir  = fs.String("trace-dir", "", "flight-recorder dump directory")
		peers     = fs.String("peers", "", "comma-separated MPI-plane addresses, one per rank")
		replPeers = fs.String("repl-peers", "", "comma-separated replication-plane addresses")
		kernel    = fs.String("kernel", "CG", "kernel to run")
		class     = fs.String("class", "S", "problem class")
		every     = fs.Int("every", 3, "checkpoint every N pragmas")
		async     = fs.Bool("async", false, "asynchronous commit pipeline")
		kill      = fs.String("kill", "", "failure spec for this rank")
		storeDir  = fs.String("store", "", "shared checkpoint directory")
		codec     = fs.String("codec", "dup", "diskless-store fragment codec")
		shards    = fs.Int("shards", 0, "codec data shards k")
		parity    = fs.Int("parity", 0, "codec parity shards m")
		groupSz   = fs.Int("group-size", 0, "checkpoint-group width (0 = flat world)")
		hb        = fs.Duration("heartbeat", 25*time.Millisecond, "detector heartbeat interval")
		phi       = fs.Float64("phi", 5, "accrual suspicion threshold")
		ackTO     = fs.Duration("ack-timeout", 0, "store neighbor ack timeout")
		queryTO   = fs.Duration("query-timeout", 0, "store recovery query timeout")
		queryN    = fs.Int("query-retries", 0, "store recovery query sweeps")
		verbose   = fs.Bool("v", false, "structured per-rank stderr logging")
	)
	_ = fs.Parse(os.Args[1:])

	k, ok := apps.Lookup(*kernel)
	if !ok {
		fatalf("worker: unknown kernel %q", *kernel)
	}
	p := k.Defaults(apps.Class(*class))
	out := apps.NewOutput()
	killSpec, err := parseKill(*kill)
	if err != nil {
		fatalf("worker: %v", err)
	}

	nc := cluster.NodeConfig{
		Rank:         *rank,
		Ranks:        *ranks,
		Capacity:     *capacity,
		OpsAddr:      *opsAddr,
		OpsDebug:     *opsDebug,
		TraceDir:     *traceDir,
		MPIAddrs:     splitAddrs(*peers),
		ReplAddrs:    splitAddrs(*replPeers),
		App:          k.App(p, out),
		Policy:       ckpt.Policy{EveryNthPragma: *every, AsyncCommit: *async},
		Kill:         killSpec,
		AckTimeout:   *ackTO,
		QueryTimeout: *queryTO,
		QueryRetries: *queryN,
		SelfHeal:     &cluster.SelfHealConfig{HeartbeatInterval: *hb, PhiThreshold: *phi},
		In:           os.Stdin,
		Out:          os.Stdout,
		Result: func() string {
			v, ok := out.Checksum(*rank)
			if !ok {
				return "?"
			}
			return strconv.FormatFloat(v, 'x', -1, 64)
		},
	}
	if *storeDir != "" {
		nc.StorePath = *storeDir
	} else {
		nc.Codec, nc.DataShards, nc.ParityShards = *codec, *shards, *parity
		nc.GroupSize = *groupSz
	}
	if *verbose || os.Getenv("C3NODE_TRACE") != "" {
		// Structured per-rank prefix with a microsecond timestamp, so the
		// interleaved stderr of many workers stays attributable and
		// ordering within one rank is visible.
		start := time.Now()
		nc.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "c3node[r%d t=%8dus] "+format+"\n",
				append([]any{*rank, time.Since(start).Microseconds()}, args...)...)
		}
	}
	if err := cluster.RunNode(nc); err != nil {
		fatalf("worker rank %d: %v", *rank, err)
	}
}

func splitAddrs(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "c3node: "+format+"\n", args...)
	os.Exit(1)
}
