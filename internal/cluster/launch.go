package cluster

// The multi-process launcher: spawns one worker process per rank (the
// workers call RunNode) and talks to them over their stdin and stdout
// pipes. It broadcasts the first attempt and then runs one event loop,
// which ends once every rank has finished the same attempt.
//
// Recovery is the workers' business (see node.go): they detect a death,
// agree on an epoch-numbered dead set and re-enter the restore attempt of
// that epoch by themselves. The launcher only spawns and kills. A "respawn
// r" request from the survivors' elected coordinator re-executes rank r
// (the new process is told to "join" and adopts the agreed epoch from its
// peers). Kills come in two forms: a worker's failure spec fires at an
// exact protocol point and the worker asks for its own SIGKILL ("victim"),
// or ExternalKill plays an outside operator and SIGKILLs a rank mid-run
// with no warning. ExternalPartition severs and later heals a rank group
// through the workers' part/heal commands.

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// LaunchConfig configures a multi-process run.
type LaunchConfig struct {
	// Ranks is the compute world size (one application process per rank).
	Ranks int
	// Capacity is the total pre-allocated slot count (0: Ranks). Slots in
	// [Ranks, Capacity) are spare storage-member slots: no process runs
	// there at launch, but an ops-plane join request ("wantjoin" from a
	// worker) spawns one, which is then admitted by a membership epoch
	// agreement among the running workers.
	Capacity int
	// Exe is the worker executable; empty means this executable
	// (os.Executable), the re-exec idiom c3node uses.
	Exe string
	// Args builds the argument list for one rank's worker process; the
	// launcher passes the freshly allocated MPI-plane and replication-plane
	// address lists. Workers must speak the RunNode pipe protocol.
	Args func(rank int, mpiAddrs, replAddrs []string) []string
	// Env is extra environment for the workers, appended to os.Environ().
	Env []string
	// SelfHeal is ignored: every world recovers through its workers'
	// detectors. It remains only for callers that still set it.
	SelfHeal bool
	// ExternalKill makes the launcher act as an outside operator: it
	// SIGKILLs the configured rank mid-run with no failure spec inside the
	// worker and no recovery coordination — the survivors must detect and
	// recover on their own.
	ExternalKill *ExternalKillSpec
	// ExternalPartition severs a rank group from the rest mid-run and heals
	// it after a delay (the part/heal pipe commands on every worker). The
	// workers' quorum logic must sort out who may commit.
	ExternalPartition *ExternalPartitionSpec
	// MaxRestarts bounds recovery cycles (default 3).
	MaxRestarts int
	// Timeout bounds the whole run (default 2 minutes).
	Timeout time.Duration
	// Stderr receives the workers' stderr (default os.Stderr).
	Stderr io.Writer
	// Log, when non-nil, receives launcher progress lines.
	Log func(format string, args ...any)
}

// LaunchResult reports a completed multi-process run.
type LaunchResult struct {
	// Attempts is the number of world launches (1 = no failures).
	Attempts int
	// Restarts is the number of worker processes re-executed after death.
	Restarts int
	// Joins counts membership admissions reported by joining workers
	// ("joined" events from spare slots); Drains counts graceful membership
	// removals ("drained" events). Both zero in a fixed world.
	Joins  int
	Drains int
	// Results holds each rank's reported result string from the successful
	// attempt, and DoneAt when the launcher read the rank's done event.
	Results map[int]string
	DoneAt  map[int]time.Time
	// Stats holds each rank's reported store statistics line (restores= and
	// fromscratch=, whether the final attempt restored from a line or
	// re-executed from the start; for the diskless store "reassemblies=<n>",
	// counting checkpoints rebuilt from peer fragments over the wire; and
	// detections=, epochs=, suspect_us=, agree_us=, restore_us= and cause=,
	// the detection path behind the first suspicion: loss, phi, lease,
	// report, or none).
	Stats map[int]string
	// KillTime is when the external SIGKILL was delivered (zero if none).
	// Compared against the workers' reported suspect_us timestamps it
	// yields the end-to-end detection latency (same host, same clock).
	KillTime time.Time
	// PartTime and HealTime bracket the external partition (zero if none).
	PartTime, HealTime time.Time
	// SplitCkpts counts the checkpoint commits each rank reported while
	// its own partition rules were installed (between its "parted" and
	// "healed" events) — the fencing contract says the minority side's
	// entries must be zero.
	SplitCkpts map[int]int
}

// ExternalKillSpec schedules the launcher-as-operator SIGKILL.
type ExternalKillSpec struct {
	// Rank is the process to kill.
	Rank int
	// AfterCheckpoints delivers the kill once the rank has reported this
	// many committed checkpoints (0: immediately after the run starts, i.e.
	// before the rank's first committed line — the from-scratch case).
	AfterCheckpoints int
	// AfterJoins additionally delays the kill until this many spare-slot
	// membership admissions ("joined" events) have been observed — the
	// elastic demo's "SIGKILL in the resized world" (0: no wait).
	AfterJoins int
}

// launchEvent is one line from a worker, or its death.
type launchEvent struct {
	rank   int
	proc   *workerProc // the worker incarnation that produced the event
	fields []string    // fields[0] is the event kind; "exit" is synthesized
}

type workerProc struct {
	rank   int
	cmd    *exec.Cmd
	stdin  io.Writer
	dead   bool
	exited chan struct{} // closed once the process has been reaped
}

func (w *workerProc) command(format string, args ...any) {
	fmt.Fprintf(w.stdin, format+"\n", args...)
}

type launcher struct {
	cfg       LaunchConfig
	mpiAddrs  []string
	replAddrs []string
	workers   []*workerProc
	events    chan launchEvent
	stop      chan struct{} // closed when cleanup begins: nothing reads events
	deadline  time.Time
	res       *LaunchResult
}

// post hands an event to the driving loop, or drops it once cleanup has
// begun. A worker's stdout reader parked on a full events channel would
// never reach cmd.Wait, and cleanup waits for exactly that.
func (l *launcher) post(ev launchEvent) {
	select {
	case l.events <- ev:
	case <-l.stop:
	}
}

func (l *launcher) logf(format string, args ...any) {
	if l.cfg.Log != nil {
		l.cfg.Log(format, args...)
	}
}

// freeAddrs reserves k distinct localhost TCP addresses by binding
// ephemeral ports. Every probe listener stays open until all k are bound:
// a port released early could come back from a later bind, handing two
// ranks one address. The race left is another socket taking a port between
// its release here and the worker's bind.
func freeAddrs(k int) ([]string, error) {
	addrs := make([]string, 0, k)
	for i := 0; i < k; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close() // probe listener: the address is all we wanted
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// Launch runs a multi-process world to completion.
func Launch(cfg LaunchConfig) (*LaunchResult, error) {
	if cfg.Ranks <= 0 {
		return nil, fmt.Errorf("cluster: launch needs a positive rank count")
	}
	if cfg.Args == nil {
		return nil, fmt.Errorf("cluster: launch needs an Args builder")
	}
	if cfg.Exe == "" {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("cluster: resolve executable: %w", err)
		}
		cfg.Exe = exe
	}
	if cfg.MaxRestarts == 0 {
		cfg.MaxRestarts = 3
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * time.Minute
	}
	if cfg.Stderr == nil {
		cfg.Stderr = os.Stderr
	}

	if cfg.Capacity == 0 {
		cfg.Capacity = cfg.Ranks
	}
	if cfg.Capacity < cfg.Ranks {
		return nil, fmt.Errorf("cluster: capacity %d below the %d-rank compute world", cfg.Capacity, cfg.Ranks)
	}

	// The MPI plane spans only the fixed compute world; the node mesh
	// (detector + diskless store) spans every slot membership can grow
	// into. One reservation keeps the two planes' ports distinct.
	addrs, err := freeAddrs(cfg.Ranks + cfg.Capacity)
	if err != nil {
		return nil, err
	}
	mpiAddrs, replAddrs := addrs[:cfg.Ranks:cfg.Ranks], addrs[cfg.Ranks:]
	l := &launcher{
		cfg:       cfg,
		mpiAddrs:  mpiAddrs,
		replAddrs: replAddrs,
		workers:   make([]*workerProc, cfg.Capacity),
		events:    make(chan launchEvent, 64),
		stop:      make(chan struct{}),
		deadline:  time.Now().Add(cfg.Timeout),
		res:       &LaunchResult{Results: make(map[int]string), DoneAt: make(map[int]time.Time), Stats: make(map[int]string)},
	}
	defer l.cleanup()

	if ek := cfg.ExternalKill; ek != nil && (ek.Rank < 0 || ek.Rank >= cfg.Ranks) {
		return nil, fmt.Errorf("cluster: ExternalKill rank %d out of range [0,%d)", ek.Rank, cfg.Ranks)
	}
	if ep := cfg.ExternalPartition; ep != nil {
		if len(ep.GroupA) == 0 || len(ep.GroupA) >= cfg.Ranks {
			return nil, fmt.Errorf("cluster: ExternalPartition group %v must be a proper non-empty subset of %d ranks", ep.GroupA, cfg.Ranks)
		}
		for _, r := range ep.GroupA {
			if r < 0 || r >= cfg.Ranks {
				return nil, fmt.Errorf("cluster: ExternalPartition rank %d out of range [0,%d)", r, cfg.Ranks)
			}
		}
		if ep.HealAfter <= 0 {
			return nil, fmt.Errorf("cluster: ExternalPartition needs a positive HealAfter (a never-healing split cannot converge)")
		}
	}

	for r := 0; r < cfg.Ranks; r++ {
		if err := l.spawn(r); err != nil {
			return nil, err
		}
	}
	if err := l.awaitEach("ready", l.allRanks()); err != nil {
		return nil, err
	}
	return l.drive()
}

func (l *launcher) allRanks() map[int]bool {
	m := make(map[int]bool, l.cfg.Ranks)
	for r := 0; r < l.cfg.Ranks; r++ {
		m[r] = true
	}
	return m
}

// spawn starts (or re-executes) one rank's worker process.
func (l *launcher) spawn(rank int) error {
	cmd := exec.Command(l.cfg.Exe, l.cfg.Args(rank, l.mpiAddrs, l.replAddrs)...)
	cmd.Env = append(os.Environ(), l.cfg.Env...)
	cmd.Stderr = l.cfg.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("cluster: start rank %d worker: %w", rank, err)
	}
	w := &workerProc{rank: rank, cmd: cmd, stdin: stdin, exited: make(chan struct{})}
	l.workers[rank] = w
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 64*1024), 64*1024)
		for sc.Scan() {
			if f := strings.Fields(sc.Text()); len(f) > 0 {
				l.post(launchEvent{rank: rank, proc: w, fields: f})
			}
		}
		// Pipe closed: the process exited (or was SIGKILLed).
		_ = cmd.Wait()
		close(w.exited)
		l.post(launchEvent{rank: rank, proc: w, fields: []string{"exit"}})
	}()
	l.logf("rank %d: worker pid %d", rank, cmd.Process.Pid)
	return nil
}

func (l *launcher) cleanup() {
	close(l.stop)
	for _, w := range l.workers {
		if w == nil || w.dead {
			continue
		}
		w.command("quit")
	}
	grace := time.Now().Add(2 * time.Second)
	for _, w := range l.workers {
		if w == nil || w.dead {
			continue
		}
		select {
		case <-w.exited:
		case <-time.After(time.Until(grace)):
			_ = w.cmd.Process.Kill()
			<-w.exited
		}
	}
}

// nextEvent waits for the next worker event, killing the run at the global
// deadline.
func (l *launcher) nextEvent() (launchEvent, error) {
	select {
	case ev := <-l.events:
		return ev, nil
	case <-time.After(time.Until(l.deadline)):
		return launchEvent{}, fmt.Errorf("cluster: launch timed out after %v", l.cfg.Timeout)
	}
}

// handleCommon processes events that can arrive in any phase. It reports
// whether the event was consumed.
func (l *launcher) handleCommon(ev launchEvent) (consumed bool, err error) {
	switch ev.fields[0] {
	case "victim":
		// The failure spec fired inside the worker, which is now frozen at
		// the exact protocol point: deliver the real SIGKILL.
		return true, l.kill(ev.rank)
	case "error":
		return true, fmt.Errorf("cluster: rank %d: %s", ev.rank, strings.Join(ev.fields[1:], " "))
	}
	return false, nil
}

// kill delivers a real SIGKILL to rank's worker and records the moment.
func (l *launcher) kill(rank int) error {
	w := l.workers[rank]
	l.logf("rank %d: SIGKILL to pid %d", rank, w.cmd.Process.Pid)
	l.res.KillTime = time.Now()
	if err := w.cmd.Process.Kill(); err != nil {
		return fmt.Errorf("cluster: SIGKILL rank %d: %w", rank, err)
	}
	return nil
}

// awaitEach consumes events until every rank in want has produced the
// given event kind.
func (l *launcher) awaitEach(kind string, want map[int]bool) error {
	for len(want) > 0 {
		ev, err := l.nextEvent()
		if err != nil {
			return err
		}
		if consumed, err := l.handleCommon(ev); err != nil {
			return err
		} else if consumed {
			continue
		}
		if ev.fields[0] == kind && want[ev.rank] {
			delete(want, ev.rank)
			continue
		}
		if ev.fields[0] == "exit" {
			return fmt.Errorf("cluster: rank %d worker died while awaiting %q", ev.rank, kind)
		}
	}
	return nil
}

// drive broadcasts the first attempt, then reacts to worker events until
// every rank has finished the same attempt. Recovery sequencing lives in
// the workers; the launcher's sole primitives are spawn(rank) on a
// coordinator's request and the SIGKILLs it is configured to deliver.
func (l *launcher) drive() (*LaunchResult, error) {
	res := l.res
	for _, w := range l.workers[:l.cfg.Ranks] {
		w.command("run")
	}

	ek := l.cfg.ExternalKill
	killed := func() bool { return !res.KillTime.IsZero() }
	if ek != nil && ek.AfterCheckpoints <= 0 && ek.AfterJoins <= 0 {
		// Kill before the rank's first committed line: the from-scratch case.
		if err := l.kill(ek.Rank); err != nil {
			return res, err
		}
	}

	ep := l.cfg.ExternalPartition
	parted, healed := false, false
	var inGroupA, split map[int]bool
	if ep != nil {
		res.SplitCkpts = make(map[int]int)
		split = make(map[int]bool)
		inGroupA = make(map[int]bool, len(ep.GroupA))
		for _, r := range ep.GroupA {
			inGroupA[r] = true
		}
	}
	part := func() {
		group := FormatGroup(ep.GroupA)
		l.logf("partition: severing group %s from the rest (heal in %v)", group, ep.HealAfter)
		res.PartTime = time.Now()
		parted = true
		for _, w := range l.workers {
			if w != nil && !w.dead {
				w.command("part %s", group)
			}
		}
		// The heal fires on the event loop (a synthetic event), keeping all
		// worker stdin writes on this goroutine.
		time.AfterFunc(ep.HealAfter, func() {
			l.post(launchEvent{rank: -1, fields: []string{"heal-timer"}})
		})
	}
	if ep != nil && ep.AfterCheckpoints <= 0 {
		part()
	}

	ckpts := 0
	groupCkpts := 0
	doneAttempt := make(map[int]int)
	respawnPending := make(map[int]bool)
	for {
		ev, err := l.nextEvent()
		if err != nil {
			return res, err
		}
		if consumed, err := l.handleCommon(ev); err != nil {
			return res, err
		} else if consumed {
			continue
		}
		switch ev.fields[0] {
		case "heal-timer":
			if parted && !healed {
				l.logf("partition: healing")
				res.HealTime = time.Now()
				healed = true
				for _, w := range l.workers {
					if w != nil && !w.dead {
						w.command("heal")
					}
				}
			}
		case "parted":
			// The rank's partition rules are installed: from here until its
			// "healed", each commit it reports was made while split.
			split[ev.rank] = true
		case "healed":
			delete(split, ev.rank)
		case "ckpt":
			if ek != nil && !killed() && ev.rank == ek.Rank {
				ckpts++
				if ckpts >= ek.AfterCheckpoints && res.Joins >= ek.AfterJoins {
					if err := l.kill(ek.Rank); err != nil {
						return res, err
					}
				}
			}
			if ep != nil {
				if split[ev.rank] {
					res.SplitCkpts[ev.rank]++
				}
				if !parted && inGroupA[ev.rank] {
					groupCkpts++
					if groupCkpts >= ep.AfterCheckpoints {
						part()
					}
				}
			}
		case "respawn":
			if len(ev.fields) < 2 {
				continue
			}
			r, err := strconv.Atoi(ev.fields[1])
			if err != nil || r < 0 || r >= len(l.workers) {
				continue
			}
			if respawnPending[r] {
				continue // duplicate request (e.g. re-elected coordinator)
			}
			w := l.workers[r]
			if w == nil {
				continue // a spare slot that never hosted a process
			}
			if ep != nil && !w.dead {
				// The "dead" rank is a partition casualty that is very much
				// alive: a severed minority process the majority's agreement
				// declared dead, or (after the heal, while monitors resettle)
				// a falsely suspected rank on either side. Spawning a
				// duplicate would collide on its listen addresses; the
				// original rejoins by itself through the epoch-state exchange.
				l.logf("rank %d: skipping respawn of partition-declared-dead rank %d (still alive)", ev.rank, r)
				continue
			}
			if !w.dead {
				// The coordinator's agreement can outrun our exit event; give
				// the process a moment to be reaped before declaring the
				// request bogus (respawning a live rank would collide on its
				// listen addresses).
				select {
				case <-w.exited:
					w.dead = true
				case <-time.After(5 * time.Second):
					return res, fmt.Errorf("cluster: rank %d requested respawn of rank %d, which is still alive", ev.rank, r)
				}
			}
			res.Restarts++
			if res.Restarts > l.cfg.MaxRestarts {
				return res, fmt.Errorf("cluster: %d respawns exceed MaxRestarts=%d", res.Restarts, l.cfg.MaxRestarts)
			}
			l.logf("rank %d: respawning on rank %d's request", r, ev.rank)
			if err := l.spawn(r); err != nil {
				return res, err
			}
			respawnPending[r] = true
		case "wantjoin":
			// The ops control plane asked for a new member. Pick the slot
			// (-1: first spare not hosting a live process), spawn a worker
			// there, and send "join" once it is ready — admission itself is
			// the workers' membership epoch agreement, not ours.
			if len(ev.fields) < 2 {
				continue
			}
			slot, err := strconv.Atoi(ev.fields[1])
			if err != nil {
				continue
			}
			if slot < 0 {
				for s := l.cfg.Ranks; s < len(l.workers); s++ {
					if (l.workers[s] == nil || l.workers[s].dead) && !respawnPending[s] {
						slot = s
						break
					}
				}
			}
			if slot < l.cfg.Ranks || slot >= len(l.workers) {
				l.logf("rank %d: wantjoin %s: no spare slot available", ev.rank, ev.fields[1])
				continue
			}
			if w := l.workers[slot]; (w != nil && !w.dead) || respawnPending[slot] {
				l.logf("rank %d: wantjoin %d: slot already hosts a process", ev.rank, slot)
				continue
			}
			l.logf("rank %d: spawning storage member on spare slot %d", ev.rank, slot)
			if err := l.spawn(slot); err != nil {
				return res, err
			}
			respawnPending[slot] = true
		case "joined":
			if ev.rank >= l.cfg.Ranks {
				res.Joins++ // spare slot admitted by a membership epoch
			}
			l.logf("rank %d: joined (%s)", ev.rank, strings.Join(ev.fields[1:], " "))
			if ek != nil && !killed() && ckpts >= ek.AfterCheckpoints && ek.AfterJoins > 0 && res.Joins >= ek.AfterJoins {
				// The join gate was the last condition still pending: the
				// operator's kill lands in the freshly resized world.
				if err := l.kill(ek.Rank); err != nil {
					return res, err
				}
			}
		case "drained":
			// A graceful membership shrink removed this worker; it exits by
			// itself and the exit event marks it dead.
			res.Drains++
			l.logf("rank %d: drained (membership shrink)", ev.rank)
		case "ready":
			if respawnPending[ev.rank] {
				delete(respawnPending, ev.rank)
				l.workers[ev.rank].command("join")
			}
		case "stat":
			if len(ev.fields) >= 3 {
				res.Stats[ev.rank] = strings.Join(ev.fields[2:], " ")
			}
		case "done":
			if len(ev.fields) < 2 {
				continue
			}
			a, err := strconv.Atoi(ev.fields[1])
			if err != nil {
				continue
			}
			doneAttempt[ev.rank] = a
			result := ""
			if len(ev.fields) >= 3 {
				result = ev.fields[2]
			}
			res.Results[ev.rank] = result
			res.DoneAt[ev.rank] = time.Now()
			// Complete once every rank has finished the same attempt. A rank
			// that finished an earlier attempt before a late failure re-runs
			// and reports again, so the map converges on the final attempt.
			if len(doneAttempt) == l.cfg.Ranks {
				same := true
				for _, da := range doneAttempt {
					if da != a {
						same = false
						break
					}
				}
				if same {
					res.Attempts = a + 1
					return res, nil
				}
			}
		case "exit":
			if ev.proc != l.workers[ev.rank] {
				continue // stale incarnation: its replacement already runs
			}
			l.workers[ev.rank].dead = true
			l.logf("rank %d: worker died", ev.rank)
		}
	}
}
