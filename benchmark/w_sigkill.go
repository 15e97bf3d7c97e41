package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"c3/internal/apps"
	"c3/internal/ckpt"
	"c3/internal/cluster"
)

// sigkill-recover: time-to-recover after a SIGKILL on the real stack. Each
// cycle is one cluster.Launch of killRanks worker processes (this binary,
// re-executed with -worker) in self-healing mode with the default dup
// codec; the launcher, acting as an outside operator, SIGKILLs one rank
// after it has committed killAfter lines. Timer- and protocol-bound:
// bulk-path changes must not move it.
//
//	op  = KillTime -> every rank past Restore and computing again
//	alt = KillTime -> the new epoch committed on every survivor
//
// Both are reported as the lower quartile over the run's cycles (see
// README: a recovery can stall a whole store query timeout, which flips
// the median between two modes from run to run).
const (
	killRanks     = 4
	killAfter     = 2
	killHeartbeat = 25 * time.Millisecond
	killPhi       = 5.0
	killTimeout   = 60 * time.Second
	// killCycle is what one launch-kill-recover-finish cycle takes at the
	// parent commit when the recovery does not stall.
	killCycle = 1150 * time.Millisecond
)

type killInst struct {
	sz   sizes
	seed int64
	ref  []string // failure-free checksums, one per rank
}

// killCycles counts the cycles of all instances of this process: a run's
// instances take one cycle each, and the victim rotates over all of them.
var killCycles int

func setupSigkill(seed int64, sz sizes) (instance, error) {
	k := &killInst{sz: sz, seed: seed}
	// The failure-free cycle is both the warm-up and the reference.
	res, _, err := k.launch(-1, newPass())
	if err != nil {
		return nil, fmt.Errorf("sigkill-recover: failure-free launch: %w", err)
	}
	for r := 0; r < killRanks; r++ {
		sum, _, _ := splitResult(res.Results[r])
		k.ref = append(k.ref, sum)
	}
	return k, nil
}

// lockedBuffer collects the workers' interleaved stderr.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// launchLog timestamps the launcher progress line that ends the respawn
// phase: the replacement's "joined" event.
type launchLog struct {
	mu       sync.Mutex
	rejoined time.Time
}

func (l *launchLog) logf(format string, args ...any) {
	if strings.Contains(format, "joined (") {
		l.mu.Lock()
		l.rejoined = time.Now()
		l.mu.Unlock()
	}
}

// launch runs one world to completion; victim < 0 is a failure-free run.
//
// The launcher reserves its workers' ports by binding and releasing them,
// and on one host an outgoing connection of an earlier-started worker now
// and then takes such a port as its source port before its owner binds it
// ("address already in use"). That world never came up: it is counted in
// cluster.port_collisions and launched again, not booked as a recovery
// that failed.
func (k *killInst) launch(victim int, p *pass) (res *cluster.LaunchResult, rec *launchRecord, err error) {
	for try := 0; try < 3; try++ {
		res, rec, err = k.launchOnce(victim)
		if err == nil || !strings.Contains(err.Error(), "address already in use") {
			break
		}
		p.layer["cluster.port_collisions"]++
	}
	return res, rec, err
}

func (k *killInst) launchOnce(victim int) (*cluster.LaunchResult, *launchRecord, error) {
	stderr := &lockedBuffer{}
	log := &launchLog{}
	cfg := cluster.LaunchConfig{
		Ranks:    killRanks,
		SelfHeal: true,
		Timeout:  killTimeout,
		Stderr:   stderr,
		Log:      log.logf,
		Args: func(rank int, mpiAddrs, replAddrs []string) []string {
			return []string{"-worker",
				"-rank", strconv.Itoa(rank),
				"-ranks", strconv.Itoa(killRanks),
				"-peers", strings.Join(mpiAddrs, ","),
				"-repl-peers", strings.Join(replAddrs, ","),
				"-n", strconv.Itoa(k.sz.killN),
				"-iters", strconv.Itoa(k.sz.killIters),
				"-every", strconv.Itoa(k.sz.killEvery)}
		},
	}
	if victim >= 0 {
		cfg.ExternalKill = &cluster.ExternalKillSpec{Rank: victim, AfterCheckpoints: killAfter}
	}
	res, err := cluster.Launch(cfg)
	return res, &launchRecord{stderr: stderr.String(), rejoined: log.rejoined}, err
}

type launchRecord struct {
	stderr   string
	rejoined time.Time // when the replacement process reported "joined"
}

// splitResult undoes the worker's "checksum@restored|scratch@micros"
// result: the checksum, whether the rank's last attempt restored from a
// line, and when it was past Restore and computing.
func splitResult(s string) (sum string, restored bool, computingAt time.Time) {
	parts := strings.Split(s, "@")
	if len(parts) != 3 {
		return s, false, time.Time{}
	}
	if us, err := strconv.ParseInt(parts[2], 10, 64); err == nil {
		computingAt = time.UnixMicro(us)
	}
	return parts[0], parts[1] == "restored", computingAt
}

// statFields parses a worker's "k=v k=v" stat line.
func statFields(stat string) map[string]int64 {
	fields := make(map[string]int64)
	for _, f := range strings.Fields(stat) {
		if k, v, ok := strings.Cut(f, "="); ok {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				fields[k] = n
			}
		}
	}
	return fields
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }

// cycle kills one rank and records the recovery's phases.
func (k *killInst) cycle(tr *tracer, p *pass) {
	// The victim derives from the seed and rotates, so a run's cycles
	// cover the ranks alike whatever the seed.
	victim := int((splitmix64(k.seed, 3) + uint64(killCycles)) % killRanks)
	id := killCycles
	killCycles++
	p.attempt(1)
	res, rec, err := k.launch(victim, p)
	p.layer["_cycles"]++
	if strings.Contains(rec.stderr, "timed out with") {
		p.layer["_stalled"]++ // a DistStore recovery query ran into its timeout
	}
	if err != nil {
		if strings.Contains(err.Error(), "still alive") || strings.Contains(err.Error(), "evicted") {
			p.layer["detect.false_suspects"]++
		}
		p.fail("sigkill-recover: cycle %d (victim %d): %v", id, victim, err)
		return
	}
	if res.Restarts != 1 || res.KillTime.IsZero() {
		p.fail("sigkill-recover: cycle %d: %d respawns (want 1), kill delivered: %v", id, res.Restarts, !res.KillTime.IsZero())
		return
	}
	kill := res.KillTime
	var suspect, agreed, restoreStart, restored time.Time
	fromLine := true
	for r := 0; r < killRanks; r++ {
		sum, ok, at := splitResult(res.Results[r])
		if sum != k.ref[r] {
			p.mismatch("sigkill-recover: cycle %d: rank %d checksum %s differs from the failure-free %s", id, r, sum, k.ref[r])
			return
		}
		fromLine = fromLine && ok
		if at.After(restored) {
			restored = at
		}
		st := statFields(res.Stats[r])
		if r == victim || st["suspect_us"] == 0 {
			continue // the replacement joined the agreed epoch; it detected nothing
		}
		if st["detections"] > 1 {
			p.layer["detect.false_suspects"] += float64(st["detections"] - 1)
		}
		s := time.UnixMicro(st["suspect_us"])
		if suspect.IsZero() || s.Before(suspect) {
			suspect = s
		}
		if a := s.Add(time.Duration(st["agree_us"]) * time.Microsecond); a.After(agreed) {
			agreed = a
		}
		if rs := s.Add(time.Duration(st["restore_us"]) * time.Microsecond); rs.After(restoreStart) {
			restoreStart = rs
		}
	}
	if suspect.IsZero() || !agreed.After(kill) || !restored.After(agreed) {
		p.fail("sigkill-recover: cycle %d: incomplete phase timestamps (suspect %v, agreed %v, restored %v)", id, suspect, agreed, restored)
		return
	}
	p.addOp(msBetween(kill, restored))
	p.addAlt(msBetween(kill, agreed))
	if !fromLine {
		// The world found no complete line (a recovery query came back short)
		// and re-executed from the beginning: correct, but the checkpoints
		// bought nothing.
		p.layer["recover.from_scratch"]++
	}

	// kill -> first suspicion -> epoch agreed everywhere -> replacement
	// joined -> every rank restored. The respawn phase ends when the
	// replacement has joined or the last survivor has entered its restore
	// attempt, whichever is later; the rest is the restore itself.
	id = tr.nextCycle()
	root := tr.add("op", "recover", kill, restored, -1, id)
	tr.add("op", "suspect", kill, suspect, root, id)
	tr.add("op", "agree", suspect, agreed, root, id)
	joined := rec.rejoined
	if restoreStart.After(joined) {
		joined = restoreStart
	}
	if joined.After(agreed) && joined.Before(restored) {
		tr.add("op", "respawn", agreed, joined, root, id)
		tr.add("op", "restore", joined, restored, root, id)
	}
	alt := tr.add("alt", "detect", kill, agreed, -1, id)
	tr.add("alt", "suspect", kill, suspect, alt, id)
	tr.add("alt", "agree", suspect, agreed, alt, id)
}

func (k *killInst) run(d time.Duration, tr *tracer, p *pass) {
	// As many cycles as fit into d when none stalls, whatever they then
	// take: a stalled recovery must not use up the cycles the lower quartile
	// needs beside it.
	n := int(d / killCycle)
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		k.cycle(tr, p)
	}
	cycles := p.layer["_cycles"]
	p.layer["recover.stall_share"] = ratio(p.layer["_stalled"], cycles)
	p.layer["recover.max_over_typical"] = ratio(quantile(p.op, 1), quantile(p.op, 0.25))
	p.layer["recover.p50_over_typical"] = ratio(median(p.op), quantile(p.op, 0.25))
}

func (k *killInst) close() {}

// restoreStamp wraps the worker's Env to note when this rank's latest
// attempt was past Restore and computing, and whether it had a line to
// restore from.
type restoreStamp struct {
	cluster.Env
	at       *time.Time
	restored *bool
}

func (e *restoreStamp) Restore() (bool, error) {
	ok, err := e.Env.Restore()
	*e.at, *e.restored = time.Now(), ok
	return ok, err
}

// workerMain is the body of one re-executed rank process: the c3node
// worker, with the heartbeat, threshold and store timeouts fixed to the
// values the workload states.
func workerMain(args []string) {
	fs := flag.NewFlagSet("benchmark-worker", flag.ExitOnError)
	var (
		_         = fs.Bool("worker", true, "worker mode (internal)")
		rank      = fs.Int("rank", 0, "this process's rank")
		ranks     = fs.Int("ranks", 1, "world size")
		peers     = fs.String("peers", "", "MPI-plane addresses")
		replPeers = fs.String("repl-peers", "", "replication-plane addresses")
		n         = fs.Int("n", 0, "CG problem size")
		iters     = fs.Int("iters", 0, "CG iterations")
		every     = fs.Int("every", 0, "checkpoint every N pragmas")
	)
	_ = fs.Parse(args) // ExitOnError: Parse exits by itself on a bad flag
	k, _ := apps.Lookup("CG")
	out := apps.NewOutput()
	app := k.App(apps.Params{Class: apps.ClassS, N: *n, Iters: *iters}, out)
	var computingAt time.Time
	var restored bool
	err := cluster.RunNode(cluster.NodeConfig{
		Rank:      *rank,
		Ranks:     *ranks,
		MPIAddrs:  strings.Split(*peers, ","),
		ReplAddrs: strings.Split(*replPeers, ","),
		App: func(env cluster.Env) error {
			return app(&restoreStamp{Env: env, at: &computingAt, restored: &restored})
		},
		Policy:   ckpt.Policy{EveryNthPragma: *every},
		SelfHeal: &cluster.SelfHealConfig{HeartbeatInterval: killHeartbeat, PhiThreshold: killPhi},
		In:       os.Stdin,
		Out:      os.Stdout,
		// The store's diagnostics go to stderr, where the launcher side
		// looks for recovery queries that ran into their timeout.
		Log: func(format string, args ...any) {
			if strings.HasPrefix(format, "dist:") {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}
		},
		Result: func() string {
			sum, ok := out.Checksum(*rank)
			if !ok {
				return "?"
			}
			mode := "@scratch@"
			if restored {
				mode = "@restored@"
			}
			return strconv.FormatFloat(sum, 'x', -1, 64) + mode + strconv.FormatInt(computingAt.UnixMicro(), 10)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark worker rank %d: %v\n", *rank, err)
		os.Exit(1)
	}
}
