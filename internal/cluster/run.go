package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"c3/internal/ckpt"
	"c3/internal/mpi"
	"c3/internal/stable"
	"c3/internal/statesave"
	"c3/internal/transport"
)

// ErrInjectedFailure marks a fail-stop failure produced by the failure
// injector. The runner treats it as a hardware fault: the world is torn
// down and all ranks restart from the last committed recovery line.
var ErrInjectedFailure = errors.New("cluster: injected fail-stop failure")

// FailureSpec schedules one fail-stop failure.
type FailureSpec struct {
	// Rank is the process to kill.
	Rank int
	// AtPragma kills the rank when its pragma-call count reaches this
	// value (1-based), before the pragma executes. Deterministic.
	AtPragma int
	// AfterCheckpoints additionally requires the rank to have started at
	// least this many checkpoints, so failures can be positioned inside
	// logging phases. 0 means no requirement.
	AfterCheckpoints int
	// Correlated lists additional ranks that die at the same instant as
	// Rank — a whole chassis, switch, or checkpoint group failing as one
	// fault domain. Their node-local checkpoint state is wiped and they
	// drop off the interconnect together with the primary victim (the
	// fault the cross-group parity shard exists to survive). In-process
	// runtime only; the multi-process runner's real-signal path ignores it.
	Correlated []int
}

// Config configures a run.
type Config struct {
	// Ranks is the world size.
	Ranks int
	// App is the application main, executed once per rank per attempt.
	App func(Env) error
	// Args is handed to the application via Env.Args.
	Args any
	// Store is the stable storage shared across restart attempts.
	// Defaults to an in-memory store.
	Store stable.Store
	// Policy controls pragma firing.
	Policy ckpt.Policy
	// Direct disables the protocol layer entirely (the "Original"
	// configuration in the paper's overhead tables).
	Direct bool
	// WideHeaders selects the full-epoch piggyback codec (ablation).
	WideHeaders bool
	// LogAllIntraSignatures logs every intra-epoch signature during
	// non-deterministic logging (the Figure 4 pseudo-code variant).
	LogAllIntraSignatures bool
	// FullCheckpointEvery enables incremental checkpointing: full
	// application-state snapshots every k-th line, content-changed sections
	// only in between. 0 or 1 means every checkpoint is full.
	FullCheckpointEvery int
	// Failures schedules fail-stop failures: Failures[i] fires during
	// attempt i. Attempts beyond the list run failure-free.
	Failures []FailureSpec
	// Partitions schedules network-partition episodes under the virtual
	// schedule engine: each spec fires in its Attempt at a seeded trigger
	// step, severing GroupA from the rest, and (optionally) heals after
	// HealAfterSteps. Requires Seed or Replay; ignored under real
	// scheduling.
	Partitions []PartitionSpec
	// AttemptFailures schedules multiple fail-stop failures per attempt:
	// every spec in AttemptFailures[i] can fire during attempt i, so two
	// ranks can die near-simultaneously in one world launch (whether both
	// actually fire depends on the schedule — the first death tears the
	// world down). When non-nil it takes precedence over Failures.
	AttemptFailures [][]FailureSpec
	// ForceRestore launches even the first attempt in restart mode, so a
	// run can resume from checkpoints a previous Run left in Store. The
	// restart-cost experiments (paper Tables 6 and 7) use this.
	ForceRestore bool
	// MaxAttempts bounds restart cycles; default len(Failures)+1.
	MaxAttempts int
	// TransportOptions configures the interconnect (latency models).
	TransportOptions []transport.Option
	// Seed, when nonzero, runs the world under the deterministic virtual
	// schedule engine (transport.Scheduler): rank interleaving, message
	// delivery order, pragma timing, failure injection points, and async
	// commit durability all become a pure function of the seed. Each
	// restart attempt runs under a sub-seed derived from (Seed, attempt).
	// Latency models are ignored in this mode; time is logical.
	Seed int64
	// Replay, when non-nil, re-executes a recorded schedule instead of
	// drawing decisions from Seed. Attempts beyond the recording fall back
	// to sub-seeds of Replay.Seed, so edited (shrunk) schedules still
	// yield a total, deterministic run.
	Replay *Schedule
	// failAction, when non-nil, replaces the in-process fail-stop injection
	// when a scheduled failure fires. The multi-process node runtime uses it
	// to announce itself as the victim and await a real SIGKILL.
	failAction func() error
	// onLayer, when non-nil, receives the protocol layer right after
	// bring-up. The multi-process node runtime uses it to expose the
	// running attempt's layer to the ops control plane (POST /checkpoint).
	onLayer func(*ckpt.Layer)
}

// Schedule is a recorded virtual-schedule execution: the decision trace of
// every restart attempt. Feeding it back through Config.Replay re-executes
// the run; internal/sched shrinks failing schedules to minimal form.
type Schedule struct {
	Seed     int64
	Attempts []*transport.Trace
}

// Clone returns a deep copy.
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{Seed: s.Seed}
	for _, t := range s.Attempts {
		c.Attempts = append(c.Attempts, t.Clone())
	}
	return c
}

// attemptSeed derives the virtual scheduler's sub-seed for one restart
// attempt (splitmix64 over the run seed and attempt index).
func attemptSeed(seed int64, attempt int) int64 {
	z := uint64(seed) + uint64(attempt+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// RankStats captures one rank's protocol counters after the final attempt.
type RankStats struct {
	Rank  int
	Stats ckpt.Stats
}

// Result reports a completed run.
type Result struct {
	// Attempts is the number of world launches (1 = no failures).
	Attempts int
	// Elapsed is the total wall time across attempts.
	Elapsed time.Duration
	// LastAttemptElapsed is the wall time of the successful attempt.
	LastAttemptElapsed time.Duration
	// Stats holds per-rank protocol counters from the successful attempt
	// (empty in Direct mode).
	Stats []RankStats
	// Transport is the interconnect's counters from the successful attempt.
	Transport transport.Stats
	// Schedule is the recorded decision trace of every attempt when the
	// run used the virtual schedule engine (Config.Seed or Config.Replay);
	// nil under real scheduling.
	Schedule *Schedule
}

type rankOutcome struct {
	rank int
	err  error
}

// Run launches the world, runs the application on every rank, and — when an
// injected failure brings the world down — restarts all ranks from the last
// committed recovery line, repeating until the application completes.
func Run(cfg Config) (*Result, error) {
	if cfg.Ranks <= 0 {
		return nil, fmt.Errorf("cluster: ranks must be positive")
	}
	if cfg.App == nil {
		return nil, fmt.Errorf("cluster: no application")
	}
	store := cfg.Store
	if store == nil {
		store = stable.NewMemStore()
	}
	maxAttempts := cfg.MaxAttempts
	if maxAttempts == 0 {
		if cfg.AttemptFailures != nil {
			maxAttempts = len(cfg.AttemptFailures) + 1
		} else {
			maxAttempts = len(cfg.Failures) + 1
		}
	}
	res := &Result{}
	virtual := cfg.Seed != 0 || cfg.Replay != nil
	if virtual {
		seed := cfg.Seed
		if cfg.Replay != nil {
			seed = cfg.Replay.Seed
		}
		res.Schedule = &Schedule{Seed: seed}
	}
	start := time.Now()
	for attempt := 0; attempt < maxAttempts; attempt++ {
		var failer *failureInjector
		if specs := cfg.attemptSpecs(attempt); len(specs) > 0 {
			failer = newFailureInjector(specs)
		}
		var sch *transport.Scheduler
		if virtual {
			if cfg.Replay != nil && attempt < len(cfg.Replay.Attempts) {
				sch = transport.NewReplayScheduler(cfg.Ranks, cfg.Replay.Attempts[attempt])
			} else {
				sch = transport.NewScheduler(cfg.Ranks, attemptSeed(res.Schedule.Seed, attempt))
			}
		}
		attemptStart := time.Now()
		outcome, stats, tstats, err := runAttempt(cfg, store, attempt > 0 || cfg.ForceRestore, failer, sch, attempt)
		if sch != nil {
			res.Schedule.Attempts = append(res.Schedule.Attempts, sch.Trace())
		}
		res.Attempts++
		if err != nil {
			return res, err
		}
		injected := false
		var firstErr error
		for _, o := range outcome {
			if errors.Is(o.err, ErrInjectedFailure) {
				injected = true
			} else if o.err != nil && !errors.Is(o.err, mpi.ErrDown) && firstErr == nil {
				firstErr = fmt.Errorf("rank %d: %w", o.rank, o.err)
			}
		}
		if firstErr != nil {
			return res, firstErr
		}
		if injected {
			continue // restart from the last committed line
		}
		// Ranks that returned ErrDown without an injected failure indicate
		// a real breakdown (should not happen).
		for _, o := range outcome {
			if o.err != nil {
				return res, fmt.Errorf("rank %d failed without injection: %w", o.rank, o.err)
			}
		}
		res.Elapsed = time.Since(start)
		res.LastAttemptElapsed = time.Since(attemptStart)
		res.Stats = stats
		res.Transport = tstats
		return res, nil
	}
	return res, fmt.Errorf("cluster: no successful attempt in %d tries", maxAttempts)
}

// attemptPartitionEvents expands the partition specs scheduled for one
// attempt into the scheduler's armed event list.
func (cfg *Config) attemptPartitionEvents(attempt int) []transport.SchedPartitionEvent {
	var events []transport.SchedPartitionEvent
	for _, spec := range cfg.Partitions {
		if spec.Attempt == attempt {
			events = append(events, spec.Events(cfg.Ranks)...)
		}
	}
	return events
}

func runAttempt(cfg Config, store stable.Store, restart bool, failer *failureInjector, sch *transport.Scheduler, attempt int) ([]rankOutcome, []RankStats, transport.Stats, error) {
	topts := cfg.TransportOptions
	if sch != nil {
		if events := cfg.attemptPartitionEvents(attempt); len(events) > 0 {
			topts = append(append([]transport.Option(nil), topts...), transport.WithPartitionPlan(events))
		}
	}
	wopts := []mpi.WorldOption{mpi.WithTransportOptions(topts...)}
	if sch != nil {
		wopts = append(wopts, mpi.WithScheduler(sch))
	}
	world := mpi.NewWorld(cfg.Ranks, wopts...)
	outcomes := make([]rankOutcome, cfg.Ranks)
	stats := make([]RankStats, cfg.Ranks)

	var wg sync.WaitGroup
	for r := 0; r < cfg.Ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if sch != nil {
				sch.Start(r)
				// Exit runs after the Shutdown below, so the teardown is
				// part of the schedule too.
				defer sch.Exit(r)
			}
			err, st := runRank(cfg, world, store, r, restart, failer)
			outcomes[r] = rankOutcome{rank: r, err: err}
			stats[r] = RankStats{Rank: r, Stats: st}
			if err != nil {
				// Fail-stop: bring the whole world down so blocked ranks
				// unblock, as a job scheduler would on node failure.
				world.Shutdown()
			}
		}(r)
	}
	wg.Wait()
	tstats := world.Network().Stats()
	world.Shutdown()
	return outcomes, stats, tstats, nil
}

func runRank(cfg Config, world *mpi.World, store stable.Store, rank int, restart bool, failer *failureInjector) (error, ckpt.Stats) {
	p := world.Proc(rank)
	if cfg.Direct {
		env := &directEnv{
			comm:  newDirectComm(p.CommWorld()),
			state: statesave.NewRegistry(),
			heap:  statesave.NewHeap(),
			args:  cfg.Args,
		}
		env.state.Register(env.heap.Section())
		return cfg.App(env), ckpt.Stats{}
	}
	heap := statesave.NewHeap()
	layer, err := ckpt.New(p, ckpt.Config{
		Store:                 store,
		Heap:                  heap,
		Policy:                cfg.Policy,
		WideHeaders:           cfg.WideHeaders,
		LogAllIntraSignatures: cfg.LogAllIntraSignatures,
		FullCheckpointEvery:   cfg.FullCheckpointEvery,
	})
	if err != nil {
		return err, ckpt.Stats{}
	}
	if cfg.onLayer != nil {
		cfg.onLayer(layer)
	}
	env := &ckptEnv{
		layer:      layer,
		world:      layer.World(),
		heap:       heap,
		args:       cfg.Args,
		restart:    restart,
		failer:     failer,
		failAction: cfg.failAction,
		rank:       rank,
		proc:       p,
		mpiW:       world,
		store:      store,
	}
	err = cfg.App(env)
	// End-of-attempt pipeline teardown: a rank that fail-stopped discards
	// its in-flight async commits (the failure already aborted them);
	// every other rank drains so its final lines are durable before the
	// store is read again — even when the attempt ended with ErrDown
	// because some other rank was killed, since stable storage outlives
	// the interconnect.
	closeErr := layer.Close(errors.Is(err, ErrInjectedFailure))
	if err == nil {
		err = closeErr
	}
	return err, layer.Stats()
}

// attemptSpecs returns the failure specs scheduled for one attempt.
func (cfg *Config) attemptSpecs(attempt int) []FailureSpec {
	if cfg.AttemptFailures != nil {
		if attempt < len(cfg.AttemptFailures) {
			return cfg.AttemptFailures[attempt]
		}
		return nil
	}
	if attempt < len(cfg.Failures) {
		return []FailureSpec{cfg.Failures[attempt]}
	}
	return nil
}

// failureInjector fires the scheduled fail-stop failures of one attempt.
// Each victim rank counts its own pragmas; several ranks can be scheduled
// in the same attempt (near-simultaneous failures).
type failureInjector struct {
	mu    sync.Mutex
	specs map[int][]*failureState // victim rank -> its scheduled failures
}

type failureState struct {
	spec    FailureSpec
	pragmas int
	fired   bool
}

func newFailureInjector(specs []FailureSpec) *failureInjector {
	f := &failureInjector{specs: make(map[int][]*failureState)}
	for _, s := range specs {
		f.specs[s.Rank] = append(f.specs[s.Rank], &failureState{spec: s})
	}
	return f
}

// shouldFire is called by every rank at each pragma; it reports whether a
// failure scheduled for that rank fires here, and which other ranks die
// with it (FailureSpec.Correlated).
func (f *failureInjector) shouldFire(rank int, epoch uint64) (bool, []int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	states := f.specs[rank]
	if len(states) == 0 {
		return false, nil
	}
	for _, st := range states {
		st.pragmas++
	}
	for _, st := range states {
		if st.fired || st.pragmas < st.spec.AtPragma {
			continue
		}
		if uint64(st.spec.AfterCheckpoints) > epoch {
			continue
		}
		st.fired = true
		return true, st.spec.Correlated
	}
	return false, nil
}

// ckptEnv is the Env implementation backed by the protocol layer.
type ckptEnv struct {
	layer      *ckpt.Layer
	world      *ckpt.WComm
	heap       *statesave.Heap
	args       any
	restart    bool
	failer     *failureInjector
	failAction func() error
	rank       int
	proc       *mpi.Proc
	mpiW       *mpi.World
	store      stable.Store
}

// injectFailure models the fail-stop failure of this rank's node, in
// hardware order: the async commit pipeline stops mid-write (an
// uncommitted line is lost, never half-visible), node-local checkpoint
// memory is wiped for stores that live on the node, and the rank drops off
// the interconnect.
func (e *ckptEnv) injectFailure(correlated []int) error {
	e.layer.AbortCommits()
	if nf, ok := e.store.(stable.NodeFailer); ok {
		nf.FailNode(e.rank)
		for _, r := range correlated {
			nf.FailNode(r)
		}
	}
	// Correlated victims drop off the interconnect at the same instant —
	// their goroutines unwind on the next MPI operation, like hardware
	// taking a whole fault domain down at once.
	for _, r := range correlated {
		e.mpiW.Kill(r)
	}
	e.mpiW.Kill(e.rank)
	return ErrInjectedFailure
}

func (e *ckptEnv) Rank() int                  { return e.rank }
func (e *ckptEnv) Size() int                  { return e.proc.Size() }
func (e *ckptEnv) World() Comm                { return e.world }
func (e *ckptEnv) State() *statesave.Registry { return e.layer.State() }
func (e *ckptEnv) Heap() *statesave.Heap      { return e.heap }
func (e *ckptEnv) Args() any                  { return e.args }

func (e *ckptEnv) Restore() (bool, error) {
	if !e.restart {
		return false, nil
	}
	return e.layer.Restore()
}

// fireFailure runs the configured failure action: the in-process fail-stop
// injection by default, or failAction (await a real SIGKILL) in the
// multi-process runtime.
func (e *ckptEnv) fireFailure(correlated []int) error {
	if e.failAction != nil {
		return e.failAction()
	}
	return e.injectFailure(correlated)
}

func (e *ckptEnv) Checkpoint() error {
	if e.failer != nil {
		if fire, corr := e.failer.shouldFire(e.rank, e.layer.Epoch()); fire {
			return e.fireFailure(corr)
		}
	}
	return e.layer.Checkpoint(false)
}

func (e *ckptEnv) CheckpointNow() error {
	if e.failer != nil {
		if fire, corr := e.failer.shouldFire(e.rank, e.layer.Epoch()); fire {
			return e.fireFailure(corr)
		}
	}
	return e.layer.Checkpoint(true)
}

// Layer exposes the protocol layer for tests and tooling.
func (e *ckptEnv) Layer() *ckpt.Layer { return e.layer }

// LayerOf extracts the protocol layer from a checkpointed Env; it returns
// nil for direct environments.
func LayerOf(env Env) *ckpt.Layer {
	if ce, ok := env.(*ckptEnv); ok {
		return ce.layer
	}
	return nil
}
