package cluster

// This file is the per-process half of the multi-process deployment mode:
// one OS process per rank (a "node"), real TCP between them, and real
// SIGKILL as the failure injector. RunNode hosts one rank and talks to the
// launcher (launch.go) over its stdin/stdout pipes:
//
//	launcher -> node:  run                       start the first attempt
//	                   join                      adopt the world's state from
//	                                             peers (a respawned rank, or a
//	                                             spare slot's first admission)
//	                   part <group> / heal       install / remove partition rules
//	                   quit                      exit
//	node -> launcher:  ready                     store + node mesh are up
//	                   victim                    failure spec fired; awaiting SIGKILL
//	                   ckpt <attempt> <version> <n>
//	                                             a checkpoint committed (diskless
//	                                             store), the store's n-th
//	                   respawn <rank>            coordinator requests a re-exec
//	                   wantjoin <slot>           ops plane asks for a new member
//	                                             (slot -1: launcher picks a spare)
//	                   joined <epoch>            membership agreement admitted us
//	                   drained <epoch>           membership agreement removed us;
//	                                             exiting cleanly
//	                   parted <n> / healed       partition rules installed, with
//	                                             the store's commit count then /
//	                                             about to be removed
//	                   stat <attempt> <k=v...>   store statistics for the attempt
//	                   done <attempt> <result>   attempt completed
//	                   error <msg>               fatal node error
//
// A node outlives its attempts: the replicated store's memory and the node
// mesh, its one listener and connection set, persist across world
// restarts, exactly like a cluster node whose surviving RAM holds
// checkpoint replicas while the MPI job is relaunched. Only a node that
// really dies — the SIGKILLed victim — loses its memory, and its
// re-executed replacement reassembles its checkpoints from peers over the
// wire.
//
// Recovery has one driver, the workers themselves. A transport.Demux
// shares the node mesh (ReplAddrs) between a failure detector
// (internal/detect), each attempt's MPI world and, unless StorePath picks
// a shared DiskStore, the diskless store's replication plane. Survivors
// detect a death from the mesh's loss report (a crashed process's
// connection ends without a goodbye) or, for failures that leave no such
// trace, from an expired contact lease. They agree on an
// epoch-numbered dead set and elect the lowest-ranked survivor to ask the
// launcher for replacement processes. Each survivor then abandons its
// attempt — the store advances to the agreed epoch, which releases any
// commit blocked on a dead holder, and the attempt's MPI view is shut down
// — and enters the restore attempt of that epoch (attempt = epoch - 1) in
// the mesh's view of generation epoch. A view drops older generations'
// frames and holds newer ones, so every process, a freshly joined
// replacement included, converges on the same MPI generation without a
// central sequencer.
//
// Elastic membership (NodeConfig.Capacity > Ranks) decouples the two
// meanings "rank" used to conflate: the MPI world that runs the
// application stays fixed at Ranks (the paper's compute world), while the
// set of node slots that host checkpoint shards, vote in epoch agreements
// and count toward quorum is an epoch-versioned member.Set that can grow
// into pre-allocated spare slots [Ranks, Capacity) and shrink back. A
// spare slot's process is a storage member: it runs no app rank, enters
// the world through the same hello/state protocol a respawned rank uses
// (JoinNew: admission is a committed membership epoch), and leaves through
// a drain agreement. Every membership change lands at a recovery line —
// survivors tear the attempt down and re-enter restore at the agreed
// epoch, and the distributed store re-partitions shard placement onto the
// new ring. NodeConfig.OpsAddr starts the embedded operations control
// plane (internal/ops) that exposes and drives all of this over HTTP.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"c3/internal/ckpt"
	"c3/internal/detect"
	"c3/internal/member"
	"c3/internal/mpi"
	"c3/internal/ops"
	"c3/internal/stable"
	"c3/internal/trace"
	"c3/internal/transport"
	"c3/internal/transport/tcp"
)

// SelfHealConfig tunes the failure detector every node runs; zero fields
// keep the defaults.
type SelfHealConfig struct {
	// HeartbeatInterval is the detector's tick period (default 25ms); the
	// contact lease that suspects a silent peer is 10 of them.
	HeartbeatInterval time.Duration
	// PhiThreshold is ignored: the contact lease is the detector's only
	// silence rule. The field remains for callers that still set it.
	PhiThreshold float64
	// JoinTimeout bounds how long a respawned replacement waits for a
	// survivor to answer its hello (default 15s).
	JoinTimeout time.Duration
}

// NodeConfig configures one rank's process.
type NodeConfig struct {
	// Rank is the hosted slot; Ranks the fixed compute world size (the MPI
	// ranks that run the application). A Rank >= Ranks is a storage member:
	// it hosts checkpoint shards and votes in agreements but runs no app.
	Rank, Ranks int
	// Capacity is the total pre-allocated slot count the elastic membership
	// can grow into (0: Ranks — the classic fixed world). Larger than Ranks
	// requires the diskless store (no StorePath).
	Capacity int
	// OpsAddr, when non-empty, starts the embedded operations control plane
	// (internal/ops) on that address. Requires the diskless store.
	OpsAddr string
	// OpsDebug additionally exposes net/http/pprof and runtime/trace
	// start/stop verbs on the ops server (profiling a live world).
	OpsDebug bool
	// TraceDir, when non-empty, is where this rank writes its flight-
	// recorder dumps (rank<N>.c3tr): on every committed epoch transition,
	// fencing change, restore entry, and at node exit, plus on demand via
	// the ops POST /trace/dump verb. cmd/c3trace merges the per-rank files.
	TraceDir string
	// MPIAddrs is ignored: every attempt's MPI world runs over the node
	// mesh. It remains only for callers that still set it.
	MPIAddrs []string
	// ReplAddrs are the per-slot addresses (Capacity of them) of the
	// long-lived node mesh: the failure detector, every attempt's MPI world
	// and, unless StorePath is set, the diskless store's replication plane.
	ReplAddrs []string
	// StorePath, when non-empty, selects a shared-filesystem DiskStore
	// rooted there instead of the DistStore.
	StorePath string
	// Codec names the diskless store's (k, m) erasure-code preset:
	// "dup" (default; k = 1, a local copy plus whole copies on ring
	// successors), "xor" (k data + 1 XOR parity shard, tolerates one
	// loss), or "rs" (Reed-Solomon k+m, tolerates any m simultaneous
	// losses at a fraction of dup's memory and wire bytes).
	Codec string
	// DataShards and ParityShards tune the geometry; zero selects the
	// preset's default. For dup, DataShards is the number of whole copies
	// (default 2) and ParityShards must be zero; xor: k=4; rs: k=4, m=2.
	DataShards   int
	ParityShards int
	// GroupSize partitions the world into checkpoint groups of that many
	// ring slots (0: flat world). Grouping confines the store's shard
	// fan-out to group-local successors plus one cross-group parity
	// holder, and switches the failure detector to the two-level
	// topology: group-local contact leases, per-group delegate report
	// trees, and inter-group agreement relayed through delegates over the
	// transport relay plane.
	GroupSize int
	// App is the application main, run once per attempt.
	App func(Env) error
	// Args is handed to the application via Env.Args.
	Args any
	// Result, when non-nil, is evaluated after a successful attempt and
	// reported to the launcher with the done event.
	Result func() string
	// Policy controls pragma firing.
	Policy ckpt.Policy
	// Kill schedules this node's own failure: when the spec fires (on the
	// first attempt), the node reports itself as the victim and blocks,
	// awaiting the launcher's real SIGKILL.
	Kill *FailureSpec
	// SelfHeal tunes the failure detector (nil: the defaults).
	SelfHeal *SelfHealConfig
	// AckTimeout, QueryTimeout and QueryRetries tune the distributed
	// store's neighbor-acknowledgment and recovery-query behavior; zero
	// values keep the store defaults. The detector's heartbeat (and so its
	// lease) and these timeouts should be tuned together (see cmd/c3node).
	AckTimeout   time.Duration
	QueryTimeout time.Duration
	QueryRetries int
	// DialWindow bounds first-connection retries (start-up ordering) and
	// how long an attempt's frames wait for a peer being replaced.
	DialWindow time.Duration
	// In and Out are the control pipes (the launcher's end of stdin/stdout).
	In  io.Reader
	Out io.Writer
	// Log, when non-nil, receives node progress lines (stderr tracing).
	Log func(format string, args ...any)
}

// node is the running state of one rank's process.
type node struct {
	cfg   NodeConfig
	store stable.Store
	dist  *stable.DistStore // nil when StorePath picks a DiskStore
	det   *detect.Detector

	outMu sync.Mutex

	statMu    sync.Mutex
	lastStats ckpt.Stats // the protocol counters of the last finished attempt

	restoreStart time.Time // when the latest self-healed restore attempt was entered

	curAttempt  atomic.Int64               // attempt whose events (ckpt) are being emitted
	lastLine    atomic.Int64               // last locally committed version (-1: none)
	layer       atomic.Pointer[ckpt.Layer] // running attempt's protocol layer (ops checkpoint trigger)
	fromScratch atomic.Int64               // restore attempts that found no complete line
}

// distOptions assembles the diskless store's options.
func (cfg *NodeConfig) distOptions() ([]stable.DistOption, error) {
	codec, err := stable.NewCodec(cfg.Codec, cfg.DataShards, cfg.ParityShards)
	if err != nil {
		return nil, err
	}
	opts := []stable.DistOption{stable.WithDistCodec(codec)}
	if cfg.Log != nil {
		opts = append(opts, stable.WithDistLog(cfg.Log))
	}
	if cfg.AckTimeout > 0 {
		opts = append(opts, stable.WithAckTimeout(cfg.AckTimeout))
	}
	if cfg.QueryTimeout > 0 {
		opts = append(opts, stable.WithQueryTimeout(cfg.QueryTimeout))
	}
	if cfg.QueryRetries > 0 {
		opts = append(opts, stable.WithQueryRetries(cfg.QueryRetries))
	}
	if cfg.GroupSize > 1 {
		opts = append(opts, stable.WithDistGroupSize(cfg.GroupSize))
	}
	return opts, nil
}

// RunNode hosts one rank until quit or stdin EOF. It is the body of
// `c3node -worker`.
func RunNode(cfg NodeConfig) error {
	if cfg.Capacity == 0 {
		cfg.Capacity = cfg.Ranks
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.Capacity || cfg.Ranks <= 0 || cfg.Capacity < cfg.Ranks {
		return fmt.Errorf("cluster: node rank %d of %d (capacity %d)", cfg.Rank, cfg.Ranks, cfg.Capacity)
	}
	if cfg.App == nil {
		return fmt.Errorf("cluster: node has no application")
	}
	if len(cfg.ReplAddrs) != cfg.Capacity {
		return fmt.Errorf("cluster: node needs %d ReplAddrs (one per slot), got %d", cfg.Capacity, len(cfg.ReplAddrs))
	}
	// Membership and the ops plane read the DistStore.
	if cfg.StorePath != "" && cfg.Capacity > cfg.Ranks {
		return fmt.Errorf("cluster: elastic membership (capacity %d > %d ranks) requires the diskless store (drop StorePath)", cfg.Capacity, cfg.Ranks)
	}
	if cfg.StorePath != "" && cfg.OpsAddr != "" {
		return fmt.Errorf("cluster: the ops control plane requires the diskless store (drop StorePath)")
	}
	if cfg.DialWindow == 0 {
		cfg.DialWindow = 10 * time.Second
	}
	var sh SelfHealConfig
	if cfg.SelfHeal != nil {
		sh = *cfg.SelfHeal
	}
	if sh.JoinTimeout <= 0 {
		sh.JoinTimeout = 15 * time.Second
	}
	cfg.SelfHeal = &sh
	w := &node{cfg: cfg}
	w.curAttempt.Store(-1)
	w.lastLine.Store(-1)
	// Salt the span-id space by rank and process so ids minted by different
	// processes — a respawned rank and its SIGKILLed predecessor included —
	// never collide when c3trace merges their dumps.
	trace.SetSalt(trace.IncarnationSalt(cfg.Rank, os.Getpid()))
	defer w.dumpTrace("exit")
	if err := w.run(); err != nil {
		w.emit("error %v", err)
		return err
	}
	return nil
}

// commandStream turns the stdin pipe into a channel of parsed commands.
func (w *node) commandStream() chan []string {
	cmds := make(chan []string)
	go func() {
		sc := bufio.NewScanner(w.cfg.In)
		sc.Buffer(make([]byte, 64*1024), 64*1024)
		for sc.Scan() {
			if f := strings.Fields(sc.Text()); len(f) > 0 {
				if w.cfg.Log != nil {
					w.cfg.Log("rank %d <- %s", w.cfg.Rank, strings.Join(f, " "))
				}
				cmds <- f
			}
		}
		close(cmds)
	}()
	return cmds
}

// dumpTrace writes the flight recorder's ring to TraceDir (no-op when
// unset). Dumps overwrite: the rank's file always holds its latest window,
// and the exit dump — the last writer — holds the most complete one.
func (w *node) dumpTrace(reason string) {
	if w.cfg.TraceDir == "" {
		return
	}
	path, err := trace.Default().WriteDump(w.cfg.TraceDir, w.cfg.Rank)
	if w.cfg.Log != nil {
		if err != nil {
			w.cfg.Log("rank %d: trace dump (%s): %v", w.cfg.Rank, reason, err)
		} else {
			w.cfg.Log("rank %d: trace dump (%s) -> %s", w.cfg.Rank, reason, path)
		}
	}
}

func (w *node) emit(format string, args ...any) {
	w.outMu.Lock()
	defer w.outMu.Unlock()
	fmt.Fprintf(w.cfg.Out, format+"\n", args...)
	if w.cfg.Log != nil {
		w.cfg.Log("rank %d -> "+format, append([]any{w.cfg.Rank}, args...)...)
	}
}

// emitSuccess reports a completed attempt: the stat line (recovery
// provenance and the detection/agreement/restore latency decomposition)
// followed by the done event.
func (w *node) emitSuccess(attempt int) {
	result := ""
	if w.cfg.Result != nil {
		result = w.cfg.Result()
	}
	reasm := int64(0)
	if w.dist != nil {
		reasm = w.dist.Reassemblies()
	}
	w.statMu.Lock()
	st := w.lastStats
	w.statMu.Unlock()
	// Recovery provenance: did this attempt restore from a line or restart
	// from scratch, and how many checkpoints were reassembled from peer
	// fragments over the wire.
	stat := fmt.Sprintf("stat %d reassemblies=%d restores=%d fromscratch=%d checkpoints=%d",
		attempt, reasm, st.Restores, st.FromScratch, st.CheckpointsTaken)
	tm := w.det.Times()
	suspectUS, agreeUS, restoreUS := int64(0), int64(0), int64(0)
	if !tm.SuspectAt.IsZero() {
		suspectUS = tm.SuspectAt.UnixMicro()
		if tm.AgreeAt.After(tm.SuspectAt) {
			agreeUS = tm.AgreeAt.Sub(tm.SuspectAt).Microseconds()
		}
		if w.restoreStart.After(tm.SuspectAt) {
			restoreUS = w.restoreStart.Sub(tm.SuspectAt).Microseconds()
		}
	}
	stat += fmt.Sprintf(" detections=%d epochs=%d suspect_us=%d agree_us=%d restore_us=%d cause=%s",
		w.det.Detections(), w.det.Epoch(), suspectUS, agreeUS, restoreUS, tm.Cause)
	w.emit("%s", stat)
	w.emit("done %d %s", attempt, result)
}

// attemptBody is one rank's share of one world launch — the multi-process
// analogue of runAttempt in run.go, reusing the same per-rank protocol
// bring-up (runRank).
func (w *node) attemptBody(ic transport.Interconnect, attempt int, restore bool) error {
	world := mpi.NewWorld(w.cfg.Ranks, mpi.WithInterconnect(ic))
	cfg := Config{
		Ranks:  w.cfg.Ranks,
		App:    w.cfg.App,
		Args:   w.cfg.Args,
		Policy: w.cfg.Policy,
		// The failure fires at the exact protocol point the spec names, but
		// the death itself is real: announce, then freeze until SIGKILL.
		failAction: func() error {
			w.emit("victim")
			select {}
		},
		onLayer: func(l *ckpt.Layer) { w.layer.Store(l) },
	}
	var failer *failureInjector
	if w.cfg.Kill != nil && attempt == 0 && w.cfg.Kill.Rank == w.cfg.Rank {
		failer = newFailureInjector([]FailureSpec{*w.cfg.Kill})
	}
	err, st := runRank(cfg, world, w.store, w.cfg.Rank, restore, failer)
	w.layer.Store(nil)
	w.statMu.Lock()
	w.lastStats = st
	w.statMu.Unlock()
	if st.FromScratch > 0 {
		// Loud on purpose: the world re-executed from the beginning, so
		// every committed checkpoint bought nothing for this recovery.
		w.fromScratch.Add(int64(st.FromScratch))
		if w.cfg.Log != nil {
			w.cfg.Log("rank %d: attempt %d restarted from scratch: no complete recovery line", w.cfg.Rank, attempt)
		}
	}
	return err
}

// epochEvent is a committed epoch transition delivered by the detector.
type epochEvent struct {
	epoch   uint64
	members member.Set
	dead    []int
	newDead []int
}

// run is RunNode's body: bring the store and the detector up, then run
// attempts — the first on the launcher's "run", later ones at the epochs
// the detector agrees on — until quit, stdin EOF, drain or a fatal error.
func (w *node) run() error {
	cfg := w.cfg
	// The compute world is fixed at Ranks; membership (shard placement,
	// quorum, agreement votes) is elastic across Capacity slots. A slot
	// beyond the compute world is a storage member: no app attempts.
	storage := cfg.Rank >= cfg.Ranks
	epochCh := make(chan epochEvent, 16)
	evicted := make(chan uint64, 1)
	drained := make(chan uint64, 1)

	rmesh, err := tcp.New(cfg.Rank, cfg.ReplAddrs, tcp.WithDialWindow(cfg.DialWindow))
	if err != nil {
		return err
	}
	// The long-lived mesh is demultiplexed: the failure detector, the
	// diskless store's replication plane and the attempts' MPI worlds share
	// its connections.
	demux := transport.NewDemux(rmesh, cfg.Rank)
	attempts := demux.Generations(transport.WireKindEnvelope, cfg.Ranks)
	if cfg.StorePath != "" {
		disk, err := stable.NewDiskStore(cfg.StorePath)
		if err != nil {
			return err
		}
		w.store = disk
	} else {
		dopts, err := cfg.distOptions()
		if err != nil {
			return err
		}
		dopts = append(dopts, stable.WithDistMembers(member.Launch(cfg.Ranks)),
			stable.WithCommitHook(func(version int, commits int64) {
				w.lastLine.Store(int64(version))
				w.emit("ckpt %d %d %d", w.curAttempt.Load(), version, commits)
			}))
		w.dist = stable.NewDistStore(cfg.Rank, cfg.Capacity, demux.Plane(transport.WireKindRepl), dopts...)
		w.store = w.dist
		defer w.dist.Close()
	}
	closeDet, err := w.startDetector(demux, epochCh, evicted, drained)
	if err != nil {
		return err
	}
	defer closeDet()
	demux.Start()
	defer demux.Close()

	cmds := w.commandStream()
	w.emit("ready")

	var (
		view      transport.Interconnect // the running attempt's MPI world
		stop      chan struct{}          // closed when that attempt ends
		done      chan error
		attempt   = -1
		seenEpoch = uint64(1)
	)
	start := func(a int, restore bool) {
		attempt = a
		w.curAttempt.Store(int64(a))
		if storage {
			// Storage members host shards and vote; the MPI world that runs
			// the application is the fixed compute ranks [0, Ranks).
			return
		}
		view, stop, done = attempts.Open(uint64(a+1)), make(chan struct{}), make(chan error, 1)
		// Connect every compute peer patiently: a frame for a peer that is
		// being replaced waits for the replacement's arrival instead of
		// being dropped after the short redial window.
		for r := 0; r < cfg.Ranks; r++ {
			rmesh.Connect(r, stop)
		}
		go func(ic transport.Interconnect) { done <- w.attemptBody(ic, a, restore) }(view)
	}
	// end retires the attempt's MPI view: every MPI call fails with ErrDown,
	// and frames still waiting for a peer are dropped.
	end := func() {
		view.Shutdown()
		close(stop)
	}
	// abandon ends the running attempt. Advancing the diskless store to a
	// newer epoch first releases any commit blocked on a dead holder's
	// acknowledgment.
	abandon := func(epoch uint64) {
		if w.dist != nil {
			w.dist.AdvanceEpoch(epoch)
		}
		if done != nil {
			end()
			<-done
			done = nil
		}
	}
	// Leaving for any reason abandons the attempt into the next attempt's
	// epoch (attempt = epoch - 1).
	defer func() { abandon(uint64(attempt + 2)) }()

	for {
		select {
		case cmd, ok := <-cmds:
			if !ok {
				return nil
			}
			switch cmd[0] {
			case "run":
				if attempt < 0 {
					// Every rank is up: only now may the detector dial its
					// peers, whose listeners would otherwise race its
					// connects for their reserved ports.
					w.det.Start()
					start(0, false)
				}
			case "join":
				// Entry into a running world. A respawned compute rank is
				// still a member and merely adopts the agreed epoch; a storage
				// slot (fresh spare, or its own re-execution) is admitted by a
				// committed membership epoch — JoinNew's hello doubles as the
				// join request.
				w.det.Start()
				var epoch uint64
				var jerr error
				if storage {
					epoch, jerr = w.det.JoinNew(cfg.SelfHeal.JoinTimeout)
				} else {
					epoch, jerr = w.det.Join(cfg.SelfHeal.JoinTimeout)
				}
				if jerr != nil {
					return jerr
				}
				seenEpoch = epoch
				if w.dist != nil {
					w.dist.SetMembership(w.det.Members())
					w.dist.AdvanceEpoch(epoch)
				}
				w.emit("joined %d", epoch)
				w.restoreStart = time.Now()
				w.dumpTrace("restore")
				start(int(epoch)-1, true)
			case "part":
				// part a+b+... — sever the listed group from the rest on the
				// node mesh, in hold mode: frames this node reads from the
				// far side are held and delivered at the heal, modeling a
				// partition shorter than TCP's retransmission patience.
				if len(cmd) < 2 {
					w.emit("error malformed part command")
					continue
				}
				groupA, err := ParseGroup(cmd[1])
				if err != nil {
					w.emit("error part: %v", err)
					continue
				}
				rmesh.SetPartition(SplitPairs(groupA, cfg.Ranks, false), true)
				// The store's commit count once the rules are in: a commit
				// whose acknowledgments landed before them has a count no
				// larger, even if its ckpt event is emitted after this one.
				var commits int64
				if w.dist != nil {
					commits, _ = w.dist.CommitStats()
				}
				w.emit("parted %d", commits)
			case "heal":
				// Reported before the rules go: in hold mode no commit can
				// complete across the split until Heal flushes the held
				// frames, so every commit the flush completes is reported
				// after "healed".
				w.emit("healed")
				rmesh.Heal()
			case "quit":
				return nil
			}

		case ev := <-epochCh:
			if ev.epoch <= seenEpoch {
				continue // stale (e.g. the epoch adopted during join)
			}
			seenEpoch = ev.epoch
			// Install the epoch's membership first — shard placement and
			// recovery queries must follow the new ring before the restore
			// attempt reads the store — then release commits blocked on
			// acknowledgments from ranks the agreement declared dead, and
			// tear the attempt down. Every epoch lands at a recovery line:
			// deaths and membership changes alike restart the world in
			// restore mode at attempt = epoch - 1.
			if w.dist != nil {
				w.dist.SetMembership(ev.members)
			}
			abandon(ev.epoch)
			// The lowest-ranked surviving member coordinates: it negotiates
			// the restore line (logged for visibility; the binding negotiation
			// is the collective reduction inside Restore) and asks the
			// respawner for replacements.
			if coordinatorOf(ev.dead, ev.members) == cfg.Rank {
				for _, r := range ev.newDead {
					trace.Default().Emit(int32(cfg.Rank), trace.KindRespawn, 0, uint64(r))
					w.emit("respawn %d", r)
				}
				if w.cfg.Log != nil {
					// Informational pre-negotiation of the restore line over
					// the store's query protocol; off the critical path (the
					// binding negotiation is Restore's collective reduction).
					go func(epoch uint64) {
						v, ok, err := w.store.LastCommitted(cfg.Rank)
						w.cfg.Log("rank %d: coordinating epoch %d recovery, candidate line %d (ok=%v err=%v)",
							cfg.Rank, epoch, v, ok, err)
					}(ev.epoch)
				}
			}
			w.restoreStart = time.Now()
			// Dump before re-entering the attempt so the suspect/gossip/agree
			// window that produced this epoch is on disk even if the restore
			// itself dies.
			w.dumpTrace("restore")
			start(int(ev.epoch)-1, true)

		case err := <-done:
			end()
			done = nil
			switch {
			case err == nil:
				w.emitSuccess(attempt)
				// Stay alive: a later failure elsewhere can still roll the
				// world back, in which case the driver restarts us.
			case errors.Is(err, mpi.ErrDown), errors.Is(err, stable.ErrFenced):
				// The view died under us — a peer's death stalling the world
				// until the detector's epoch restarts it — or, on the minority
				// side of a partition, the store refused a commit and the
				// heal's newer epoch restarts the attempt.
			default:
				return fmt.Errorf("rank %d attempt %d: %w", cfg.Rank, attempt, err)
			}

		case epoch := <-drained:
			// A committed membership epoch removed this very slot — the
			// graceful shrink this node (or an operator via the ops plane)
			// asked for. Stop hosting and exit cleanly; peers re-partition.
			abandon(epoch)
			w.emit("drained %d", epoch)
			return nil

		case epoch := <-evicted:
			return fmt.Errorf("rank %d evicted by epoch %d while alive (false suspicion won agreement)", cfg.Rank, epoch)
		}
	}
}

// startDetector adds the self-healing runtime to the node: the failure
// detector on the demux's detector plane, the delegate relay of a grouped
// world, and the ops control plane when configured. It must run before the
// demux starts dispatching frames; the returned func tears it all down.
// The detector itself starts on the node's first "run" or "join".
func (w *node) startDetector(demux *transport.Demux, epochCh chan<- epochEvent, evicted, drained chan uint64) (func(), error) {
	cfg := w.cfg
	// Grouped worlds route cross-group detector traffic through delegate
	// relays instead of opening an all-pairs conversation.
	var relay *transport.Relay
	if cfg.GroupSize > 1 {
		relay = transport.NewRelay(demux)
	}
	offer := func(ch chan uint64, epoch uint64) {
		select {
		case ch <- epoch:
		default:
		}
	}
	det, err := detect.New(detect.Options{
		Self:              cfg.Rank,
		Ranks:             cfg.Capacity,
		Members:           member.Launch(cfg.Ranks),
		Net:               demux.Plane(transport.WireKindDetect),
		HeartbeatInterval: cfg.SelfHeal.HeartbeatInterval,
		GroupSize:         cfg.GroupSize,
		Relay:             relay,
		OnEpoch: func(epoch uint64, members member.Set, dead, newDead []int) {
			epochCh <- epochEvent{epoch: epoch, members: members, dead: dead, newDead: newDead}
		},
		OnEvicted: func(epoch uint64) { offer(evicted, epoch) },
		OnDrained: func(epoch uint64) { offer(drained, epoch) },
		// Fencing: when this rank loses majority contact the store refuses
		// checkpoint commits (ErrFenced) instead of excusing the unreachable
		// holders — a minority-side rank must not extend a recovery line a
		// majority may be superseding without it.
		OnFence: func(fenced bool) {
			if w.dist != nil {
				w.dist.SetFenced(fenced)
			}
			// Preserve the ring around the fencing transition: partition
			// post-mortems want the detector events that led here.
			w.dumpTrace("fence")
		},
		Logf: cfg.Log,
	})
	if err != nil {
		return nil, err
	}
	w.det = det
	// Every frame on the shared mesh is liveness evidence, and a peer's
	// crash arrives as a loss report behind its last frame (the mesh's
	// goodbye frames keep orderly exits out of it).
	det.ObserveVia(demux)
	if relay != nil {
		relay.Start()
	}
	var srv *ops.Server
	if cfg.OpsAddr != "" {
		var oo []ops.Option
		if cfg.OpsDebug {
			oo = append(oo, ops.WithDebug())
		}
		if srv, err = ops.Serve(cfg.OpsAddr, w, oo...); err != nil {
			det.Close()
			return nil, err
		}
	}
	return func() {
		if srv != nil {
			_ = srv.Close() // shutting down: the ops server has nothing left to serve
		}
		if relay != nil {
			relay.Close()
		}
		det.Close()
	}, nil
}

// --- Ops control-plane backend (internal/ops.Backend) ---
//
// The node implements the control plane's Backend so internal/ops stays
// free of cluster imports. All methods run on HTTP handler goroutines and
// touch only thread-safe surfaces: detector accessors, store counters,
// atomics, and the outMu-serialized pipe.

// Status snapshots this node's view of the world for GET /status.
func (w *node) Status() ops.Status {
	members := w.det.Members()
	commits, _ := w.dist.CommitStats()
	st := ops.Status{
		Rank:            w.cfg.Rank,
		World:           w.cfg.Ranks,
		Capacity:        w.cfg.Capacity,
		Storage:         w.cfg.Rank >= w.cfg.Ranks,
		Attempt:         int(w.curAttempt.Load()),
		Epoch:           w.det.Epoch(),
		MembershipEpoch: w.det.MembershipEpoch(),
		Members:         members.Members(),
		Dead:            w.det.Dead(),
		Fenced:          w.det.Fenced(),
		Line:            int(w.lastLine.Load()),
		Checkpoints:     commits,
		StoredBytes:     w.dist.StoredBytes(),
	}
	if topo := w.det.Topology(); !topo.Flat() {
		st.GroupSize = w.cfg.GroupSize
		st.Groups = topo.NumGroups()
		st.Delegates = topo.Delegates()
	}
	return st
}

// Metrics snapshots this node's counters for GET /metrics.
func (w *node) Metrics() ops.Metrics {
	members := w.det.Members()
	commits, nanos := w.dist.CommitStats()
	last := 0.0
	if tm := w.det.Times(); !tm.SuspectAt.IsZero() && tm.AgreeAt.After(tm.SuspectAt) {
		last = tm.AgreeAt.Sub(tm.SuspectAt).Seconds()
	}
	suspicions := make(map[string]uint64)
	for cause, n := range w.det.Suspicions() {
		suspicions[cause.String()] = n
	}
	return ops.Metrics{
		Rank:            w.cfg.Rank,
		Attempt:         int(w.curAttempt.Load()),
		Commits:         commits,
		CommitSeconds:   float64(nanos) / 1e9,
		Detections:      w.det.Detections(),
		DetectLastSecs:  last,
		Suspicions:      suspicions,
		Epoch:           w.det.Epoch(),
		MembershipEpoch: w.det.MembershipEpoch(),
		Members:         members.Size(),
		Groups:          w.det.Topology().NumGroups(),
		StoredBytes:     w.dist.StoredBytes(),
		ReplicatedBytes: w.dist.ReplicatedBytes(),
		Reassemblies:    w.dist.Reassemblies(),
		FromScratch:     w.fromScratch.Load(),
		Fenced:          w.det.Fenced(),
	}
}

// TraceDump implements POST /trace/dump (ops.TraceDumper): write the
// flight recorder's ring to the configured trace directory on demand.
func (w *node) TraceDump() (string, error) {
	if w.cfg.TraceDir == "" {
		return "", fmt.Errorf("rank %d has no trace directory configured (run with -trace-dir)", w.cfg.Rank)
	}
	return trace.Default().WriteDump(w.cfg.TraceDir, w.cfg.Rank)
}

// CheckpointNow implements POST /checkpoint: the running attempt takes a
// recovery line at its next pragma.
func (w *node) CheckpointNow() error {
	l := w.layer.Load()
	if l == nil {
		return fmt.Errorf("no attempt is running on rank %d", w.cfg.Rank)
	}
	l.RequestCheckpoint()
	return nil
}

// Drain implements POST /drain: start the membership agreement that
// removes a storage member gracefully. Compute ranks cannot drain — the
// MPI world is fixed at launch; shrinking it would change the
// application's decomposition mid-run.
func (w *node) Drain(rank int) error {
	if rank < w.cfg.Ranks {
		return fmt.Errorf("rank %d hosts an application rank; only storage members (slots >= %d) drain", rank, w.cfg.Ranks)
	}
	return w.det.Drain(rank)
}

// JoinHint implements POST /join: ask the launcher to spawn a process for
// a spare slot. Admission itself happens between the new process and the
// members (JoinNew -> membership epoch agreement); the launcher merely
// provides the process.
func (w *node) JoinHint(slot int) error {
	if slot >= 0 {
		if slot < w.cfg.Ranks || slot >= w.cfg.Capacity {
			return fmt.Errorf("slot %d outside the spare range [%d,%d)", slot, w.cfg.Ranks, w.cfg.Capacity)
		}
		if w.det.Members().Contains(slot) {
			return fmt.Errorf("slot %d is already a member", slot)
		}
	} else if w.det.Members().Size() >= w.cfg.Capacity {
		return fmt.Errorf("all %d slots are members; nothing spare to join", w.cfg.Capacity)
	}
	w.emit("wantjoin %d", slot)
	return nil
}

// coordinatorOf returns the recovery coordinator for a dead set: the
// lowest-ranked surviving member.
func coordinatorOf(dead []int, members member.Set) int {
	deadSet := make(map[int]bool, len(dead))
	for _, r := range dead {
		deadSet[r] = true
	}
	for _, r := range members.Members() {
		if !deadSet[r] {
			return r
		}
	}
	return -1
}
