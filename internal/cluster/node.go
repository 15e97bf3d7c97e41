package cluster

// This file is the per-process half of the multi-process deployment mode:
// one OS process per rank (a "node"), real TCP between them, and real
// SIGKILL as the failure injector. RunNode hosts one rank and takes orders
// from the launcher (launch.go) over its stdin/stdout pipes:
//
//	launcher -> node:  run <attempt> <restore>   start an attempt
//	                   abort <token>             tear the current attempt down
//	                   join                      adopt the world's state from
//	                                             peers (self-heal respawn, or a
//	                                             spare slot's first admission)
//	                   quit                      exit
//	node -> launcher:  ready                     store + meshes are up
//	                   victim                    failure spec fired; awaiting SIGKILL
//	                   ckpt <attempt> <version>  a checkpoint committed (self-heal)
//	                   respawn <rank>            coordinator requests a re-exec
//	                   wantjoin <slot>           ops plane asks for a new member
//	                                             (slot -1: launcher picks a spare)
//	                   joined <epoch>            membership agreement admitted us
//	                   drained <epoch>           membership agreement removed us;
//	                                             exiting cleanly
//	                   stat <attempt> <k=v...>   store statistics for the attempt
//	                   done <attempt> <result>   attempt completed
//	                   down <attempt>            attempt ended with the world down
//	                   aborted <token>           abort acknowledged, attempt torn down
//	                   error <msg>               fatal node error
//
// A node outlives its attempts: the replicated store's memory (and its
// replication TCP mesh) persists across world restarts, exactly like a
// cluster node whose surviving RAM holds checkpoint replicas while the MPI
// job is relaunched. Only a node that really dies — the SIGKILLed victim —
// loses its memory, and its re-executed replacement reassembles its
// checkpoints from peers over the wire.
//
// Two coordination modes exist. In the legacy launcher-driven mode the
// launcher is an omniscient oracle: it delivers the SIGKILL itself, aborts
// the survivors, re-execs the dead rank, and broadcasts the next attempt.
// In self-healing mode (NodeConfig.SelfHeal) the node shares its long-lived
// replication mesh between the distributed store and a failure detector
// (internal/detect) through a transport.Demux: survivors detect a death
// from the mesh's loss report (a crashed process's connection ends
// without a goodbye) or, for failures that leave no such trace, from
// phi-accrual heartbeat silence, agree on an epoch-numbered dead set,
// interrupt in-flight commits by advancing the store's epoch, elect the
// lowest-ranked survivor to ask the launcher — now a dumb respawner — for
// replacement processes, and enter the restore attempt on their own. The
// attempt number is derived from the agreed epoch (attempt = epoch - 1),
// so every process, including a freshly joined replacement, converges on
// the same MPI-mesh generation without a central sequencer.
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
	"strconv"
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

// SelfHealConfig enables and tunes the autonomous failure-detection and
// recovery mode. It requires the diskless replicated store (ReplAddrs).
type SelfHealConfig struct {
	// HeartbeatInterval is the detector's ping period (default 25ms).
	HeartbeatInterval time.Duration
	// PhiThreshold is the accrued suspicion level that declares a peer
	// suspect (default 5).
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
	// can grow into (0: Ranks — the classic fixed world). Requires SelfHeal
	// when larger than Ranks; ReplAddrs must then list Capacity addresses.
	Capacity int
	// OpsAddr, when non-empty, starts the embedded operations control plane
	// (internal/ops) on that address. Requires SelfHeal.
	OpsAddr string
	// OpsDebug additionally exposes net/http/pprof and runtime/trace
	// start/stop verbs on the ops server (profiling a live world).
	OpsDebug bool
	// TraceDir, when non-empty, is where this rank writes its flight-
	// recorder dumps (rank<N>.c3tr): on every committed epoch transition,
	// fencing change, restore entry, and at node exit, plus on demand via
	// the ops POST /trace/dump verb. cmd/c3trace merges the per-rank files.
	TraceDir string
	// MPIAddrs are the per-rank addresses of the MPI-plane TCP meshes (one
	// fresh mesh per attempt, tagged with the attempt's generation).
	MPIAddrs []string
	// ReplAddrs, when non-empty, are the per-rank addresses of the
	// long-lived replication mesh backing a diskless stable.DistStore.
	ReplAddrs []string
	// StorePath is the shared-filesystem DiskStore root used when
	// ReplAddrs is empty.
	StorePath string
	// Codec selects the diskless store's fragment codec: "dup" (full
	// +1/+2 replication, default), "xor" (k data + 1 parity shard on
	// distinct ring successors, tolerates one loss), or "rs"
	// (Reed-Solomon k+m, tolerates any m simultaneous losses at a
	// fraction of dup's memory and wire bytes).
	Codec string
	// DataShards (k) and ParityShards (m) tune the codec geometry; zero
	// selects the per-codec defaults (dup: 2 fragments; xor: k=4; rs:
	// k=4, m=2).
	DataShards   int
	ParityShards int
	// GroupSize partitions the world into checkpoint groups of that many
	// ring slots (0: flat world). Grouping confines the store's shard
	// fan-out to group-local successors plus one cross-group parity
	// holder, and — in self-healing mode — switches the failure detector
	// to the two-level topology: group-local heartbeat rings, per-group
	// delegate report trees, and inter-group agreement relayed through
	// delegates over the transport relay plane.
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
	// FullCheckpointEvery enables incremental checkpointing (see Config).
	FullCheckpointEvery int
	// Kill schedules this node's own failure: when the spec fires (on the
	// first attempt), the node reports itself as the victim and blocks,
	// awaiting the launcher's real SIGKILL.
	Kill *FailureSpec
	// SelfHeal, when non-nil, runs the node in self-healing mode.
	SelfHeal *SelfHealConfig
	// AckTimeout, QueryTimeout and QueryRetries tune the distributed
	// store's neighbor-acknowledgment and recovery-query behavior; zero
	// values keep the store defaults. The detector's suspicion threshold
	// and these timeouts should be tuned together (see cmd/c3node).
	AckTimeout   time.Duration
	QueryTimeout time.Duration
	QueryRetries int
	// DialWindow bounds first-connection retries (start-up ordering).
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
	dist  *stable.DistStore // non-nil when diskless
	det   *detect.Detector  // non-nil in self-healing mode

	outMu sync.Mutex

	statMu    sync.Mutex
	lastStats ckpt.Stats // the protocol counters of the last finished attempt

	curAttempt  atomic.Int64               // attempt whose events (ckpt) are being emitted
	lastLine    atomic.Int64               // last locally committed version (-1: none)
	layer       atomic.Pointer[ckpt.Layer] // running attempt's protocol layer (ops checkpoint trigger)
	fromScratch atomic.Int64               // restore attempts that found no complete line
}

// distOptions assembles the store options shared by both modes.
func (cfg *NodeConfig) distOptions() ([]stable.DistOption, error) {
	var opts []stable.DistOption
	if cfg.Codec != "" || cfg.DataShards > 0 || cfg.ParityShards > 0 {
		codec, err := stable.NewCodec(cfg.Codec, cfg.DataShards, cfg.ParityShards)
		if err != nil {
			return nil, err
		}
		if codec.ParityShards() == 0 && cfg.DataShards > 0 {
			opts = append(opts, stable.WithDistFragments(cfg.DataShards))
		} else if codec.ParityShards() > 0 {
			opts = append(opts, stable.WithDistCodec(codec))
		}
	}
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
	if cfg.SelfHeal == nil && (cfg.Capacity > cfg.Ranks || cfg.Rank >= cfg.Ranks) {
		return fmt.Errorf("cluster: elastic membership (capacity %d > %d ranks) requires self-healing mode", cfg.Capacity, cfg.Ranks)
	}
	if cfg.OpsAddr != "" && cfg.SelfHeal == nil {
		return fmt.Errorf("cluster: the ops control plane requires self-healing mode")
	}
	if cfg.DialWindow == 0 {
		cfg.DialWindow = 10 * time.Second
	}
	w := &node{cfg: cfg}
	w.curAttempt.Store(-1)
	w.lastLine.Store(-1)
	// Salt the span-id space by rank and process so ids minted by different
	// processes — a respawned rank and its SIGKILLed predecessor included —
	// never collide when c3trace merges their dumps.
	trace.SetSalt(trace.IncarnationSalt(cfg.Rank, os.Getpid()))
	defer w.dumpTrace("exit")

	if cfg.SelfHeal != nil {
		if len(cfg.ReplAddrs) == 0 {
			err := fmt.Errorf("cluster: self-healing mode requires the diskless replicated store (ReplAddrs)")
			w.emit("error %v", err)
			return err
		}
		return w.runSelfHeal()
	}

	switch {
	case len(cfg.ReplAddrs) > 0:
		dopts, err := cfg.distOptions()
		if err != nil {
			w.emit("error %v", err)
			return err
		}
		rmesh, err := tcp.New(cfg.Rank, cfg.ReplAddrs, tcp.WithDialWindow(cfg.DialWindow))
		if err != nil {
			w.emit("error %v", err)
			return err
		}
		w.dist = stable.NewDistStore(cfg.Rank, cfg.Ranks, rmesh, dopts...)
		w.store = w.dist
		defer w.dist.Close()
	case cfg.StorePath != "":
		disk, err := stable.NewDiskStore(cfg.StorePath)
		if err != nil {
			w.emit("error %v", err)
			return err
		}
		// Stamp the configured codec geometry into commit markers so
		// c3inspect reports the same configuration the diskless planes use.
		if c, cerr := stable.NewCodec(cfg.Codec, cfg.DataShards, cfg.ParityShards); cerr == nil {
			disk.SetMarkerInfo(c.ID(), c.DataShards(), c.ParityShards())
		}
		w.store = disk
	default:
		err := fmt.Errorf("cluster: node needs ReplAddrs or StorePath")
		w.emit("error %v", err)
		return err
	}

	cmds := w.commandStream()
	w.emit("ready")
	for cmd := range cmds {
		switch cmd[0] {
		case "run":
			if len(cmd) < 3 {
				w.emit("error malformed run command")
				continue
			}
			attempt, _ := strconv.Atoi(cmd[1])
			restore := cmd[2] == "1"
			w.runAttempt(attempt, restore, cmds)
		case "abort":
			w.emit("aborted %s", tokenOf(cmd))
		case "quit":
			return nil
		}
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

func tokenOf(cmd []string) string {
	if len(cmd) > 1 {
		return cmd[1]
	}
	return "?"
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

// runAttempt executes one world launch, staying responsive to abort
// commands while the application runs.
func (w *node) runAttempt(attempt int, restore bool, cmds <-chan []string) {
	if w.dist != nil {
		w.dist.Resume()
	}
	w.curAttempt.Store(int64(attempt))
	mesh, err := tcp.New(w.cfg.Rank, w.cfg.MPIAddrs,
		tcp.WithGeneration(uint64(attempt+1)), tcp.WithDialWindow(w.cfg.DialWindow))
	if err != nil {
		w.emit("error %v", err)
		return
	}
	done := make(chan error, 1)
	go func() { done <- w.attemptBody(mesh, attempt, restore) }()

	for {
		select {
		case err := <-done:
			w.finishMesh(mesh)
			switch {
			case err == nil:
				w.emitSuccess(attempt, nil)
			case errors.Is(err, mpi.ErrDown):
				w.emit("down %d", attempt)
			default:
				w.emit("error rank %d attempt %d: %v", w.cfg.Rank, attempt, err)
			}
			return
		case cmd, ok := <-cmds:
			if !ok || cmd[0] == "quit" {
				w.teardown(mesh)
				<-done
				return
			}
			if cmd[0] == "abort" {
				w.teardown(mesh)
				<-done
				w.finishMesh(mesh)
				w.dumpTrace("abort")
				w.emit("aborted %s", tokenOf(cmd))
				return
			}
			w.emit("error unexpected %q during attempt", cmd[0])
		}
	}
}

// emitSuccess reports a completed attempt: the stat line (recovery
// provenance, and in self-healing mode the detection/agreement/restore
// latency decomposition) followed by the done event.
func (w *node) emitSuccess(attempt int, sh *selfHealState) {
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
	if sh != nil {
		tm := sh.det.Times()
		suspectUS, agreeUS, restoreUS := int64(0), int64(0), int64(0)
		if !tm.SuspectAt.IsZero() {
			suspectUS = tm.SuspectAt.UnixMicro()
			if tm.AgreeAt.After(tm.SuspectAt) {
				agreeUS = tm.AgreeAt.Sub(tm.SuspectAt).Microseconds()
			}
			if sh.restoreStart.After(tm.SuspectAt) {
				restoreUS = sh.restoreStart.Sub(tm.SuspectAt).Microseconds()
			}
		}
		stat += fmt.Sprintf(" detections=%d epochs=%d suspect_us=%d agree_us=%d restore_us=%d cause=%s",
			sh.det.Detections(), sh.det.Epoch(), suspectUS, agreeUS, restoreUS, tm.Cause)
	}
	w.emit("%s", stat)
	w.emit("done %d %s", attempt, result)
}

// teardown brings the current attempt down: the MPI mesh dies (all blocked
// operations return ErrDown) and any commit blocked on a dead neighbor's
// acknowledgment is released.
func (w *node) teardown(mesh *tcp.Mesh) {
	mesh.Shutdown()
	if w.dist != nil {
		w.dist.Interrupt()
	}
}

func (w *node) finishMesh(mesh *tcp.Mesh) {
	mesh.Close()
}

// attemptBody is one rank's share of one world launch — the multi-process
// analogue of runAttempt in run.go, reusing the same per-rank protocol
// bring-up (runRank).
func (w *node) attemptBody(mesh *tcp.Mesh, attempt int, restore bool) error {
	world := mpi.NewWorld(w.cfg.Ranks, mpi.WithInterconnect(mesh))
	cfg := Config{
		Ranks:               w.cfg.Ranks,
		App:                 w.cfg.App,
		Args:                w.cfg.Args,
		Policy:              w.cfg.Policy,
		FullCheckpointEvery: w.cfg.FullCheckpointEvery,
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

// --- Self-healing mode ---

// epochEvent is a committed epoch transition delivered by the detector.
type epochEvent struct {
	epoch   uint64
	members member.Set
	dead    []int
	newDead []int
}

// selfHealState bundles the self-healing runtime of one node.
type selfHealState struct {
	det          *detect.Detector
	restoreStart time.Time // when the latest restore attempt was entered
}

// runSelfHeal is RunNode's body in self-healing mode: the long-lived
// replication mesh is demultiplexed between the distributed store and the
// failure detector, and the node coordinates its own recovery.
func (w *node) runSelfHeal() error {
	cfg := w.cfg
	sh := cfg.SelfHeal
	if sh.JoinTimeout <= 0 {
		sh.JoinTimeout = 15 * time.Second
	}
	// The compute world is fixed at Ranks; membership (shard placement,
	// quorum, agreement votes) is elastic across Capacity slots. A slot
	// beyond the compute world is a storage member: no app attempts.
	storage := cfg.Rank >= cfg.Ranks
	boot := member.Launch(cfg.Ranks)

	dopts, err := cfg.distOptions()
	if err != nil {
		w.emit("error %v", err)
		return err
	}
	rmesh, err := tcp.New(cfg.Rank, cfg.ReplAddrs, tcp.WithDialWindow(cfg.DialWindow))
	if err != nil {
		w.emit("error %v", err)
		return err
	}
	demux := transport.NewDemux(rmesh, cfg.Rank)
	replPlane := demux.Plane(transport.WireKindRepl)
	detPlane := demux.Plane(transport.WireKindDetect)
	// Grouped worlds route cross-group detector traffic through delegate
	// relays instead of opening an all-pairs conversation; the relay plane
	// must exist before the demux starts dispatching frames.
	var relay *transport.Relay
	if cfg.GroupSize > 1 {
		relay = transport.NewRelay(demux)
	}

	dopts = append(dopts, stable.WithCommitHook(func(version int) {
		w.lastLine.Store(int64(version))
		w.emit("ckpt %d %d", w.curAttempt.Load(), version)
	}))
	dopts = append(dopts, stable.WithDistMembers(boot))
	w.dist = stable.NewDistStore(cfg.Rank, cfg.Capacity, replPlane, dopts...)
	w.store = w.dist
	defer w.dist.Close()

	epochCh := make(chan epochEvent, 16)
	evicted := make(chan uint64, 1)
	drained := make(chan uint64, 1)
	det, err := detect.New(detect.Options{
		Self:              cfg.Rank,
		Ranks:             cfg.Capacity,
		Members:           boot,
		Net:               detPlane,
		HeartbeatInterval: sh.HeartbeatInterval,
		PhiThreshold:      sh.PhiThreshold,
		GroupSize:         cfg.GroupSize,
		Relay:             relay,
		OnEpoch: func(epoch uint64, members member.Set, dead, newDead []int) {
			epochCh <- epochEvent{epoch: epoch, members: members, dead: dead, newDead: newDead}
		},
		OnEvicted: func(epoch uint64) {
			select {
			case evicted <- epoch:
			default:
			}
		},
		OnDrained: func(epoch uint64) {
			select {
			case drained <- epoch:
			default:
			}
		},
		// Fencing: when this rank loses majority contact the store refuses
		// checkpoint commits (ErrFenced) instead of excusing the unreachable
		// holders — a minority-side rank must not extend a recovery line a
		// majority may be superseding without it.
		OnFence: func(fenced bool) {
			w.dist.SetFenced(fenced)
			// Preserve the ring around the fencing transition: partition
			// post-mortems want the detector events that led here.
			w.dumpTrace("fence")
		},
		Logf: cfg.Log,
	})
	if err != nil {
		w.emit("error %v", err)
		return err
	}
	defer det.Close()
	w.det = det
	// Every frame on the shared mesh is liveness evidence, and a peer's
	// crash arrives as a loss report behind its last frame (the mesh's
	// goodbye frames keep orderly exits out of it).
	det.ObserveVia(demux)
	demux.Start()
	defer demux.Close()
	if relay != nil {
		relay.Start()
		defer relay.Close()
	}
	det.Start()

	if cfg.OpsAddr != "" {
		var oo []ops.Option
		if cfg.OpsDebug {
			oo = append(oo, ops.WithDebug())
		}
		srv, serr := ops.Serve(cfg.OpsAddr, w, oo...)
		if serr != nil {
			w.emit("error %v", serr)
			return serr
		}
		defer srv.Close()
	}

	state := &selfHealState{det: det}
	cmds := w.commandStream()
	w.emit("ready")

	var (
		mesh      *tcp.Mesh
		done      chan error
		attempt   = -1
		seenEpoch = uint64(1)
		partPairs [][2]int // active partition rules (nil when healed)
	)
	start := func(a int, restore bool) {
		if w.dist != nil {
			w.dist.Resume()
		}
		attempt = a
		w.curAttempt.Store(int64(a))
		if storage {
			// Storage members host shards and vote; the MPI world that runs
			// the application is the fixed compute ranks [0, Ranks).
			return
		}
		m, err := tcp.New(cfg.Rank, cfg.MPIAddrs,
			tcp.WithGeneration(uint64(a+1)), tcp.WithDialWindow(cfg.DialWindow))
		if err != nil {
			w.emit("error %v", err)
			return
		}
		if partPairs != nil {
			// An attempt born during an active partition inherits the rules:
			// its traffic toward the far side is held until the heal.
			m.SetPartition(partPairs, true)
		}
		mesh = m
		done = make(chan error, 1)
		go func(m *tcp.Mesh) { done <- w.attemptBody(m, a, restore) }(m)
	}
	stop := func() {
		if done == nil {
			return
		}
		mesh.Shutdown()
		<-done
		w.finishMesh(mesh)
		mesh, done = nil, nil
	}
	defer stop()

	for {
		select {
		case cmd, ok := <-cmds:
			if !ok {
				return nil
			}
			switch cmd[0] {
			case "run":
				if len(cmd) < 3 {
					w.emit("error malformed run command")
					continue
				}
				a, _ := strconv.Atoi(cmd[1])
				if done != nil || a <= attempt {
					continue // already running or stale
				}
				start(a, cmd[2] == "1")
			case "join":
				// Entry into a running world. A respawned compute rank is
				// still a member and merely adopts the agreed epoch; a storage
				// slot (fresh spare, or its own re-execution) is admitted by a
				// committed membership epoch — JoinNew's hello doubles as the
				// join request.
				var epoch uint64
				var jerr error
				if storage {
					epoch, jerr = det.JoinNew(sh.JoinTimeout)
				} else {
					epoch, jerr = det.Join(sh.JoinTimeout)
				}
				if jerr != nil {
					w.emit("error %v", jerr)
					return jerr
				}
				seenEpoch = epoch
				w.dist.SetMembership(det.Members())
				w.dist.AdvanceEpoch(epoch)
				w.emit("joined %d", epoch)
				state.restoreStart = time.Now()
				w.dumpTrace("restore")
				start(int(epoch)-1, true)
			case "part":
				// part a+b+... — sever the listed group from the rest on every
				// mesh this process owns (replication plane and the current
				// MPI attempt), in hold mode: frames toward the far side are
				// buffered and delivered at the heal, modeling a partition
				// shorter than TCP's retransmission patience.
				if len(cmd) < 2 {
					w.emit("error malformed part command")
					continue
				}
				groupA, err := ParseGroup(cmd[1])
				if err != nil {
					w.emit("error part: %v", err)
					continue
				}
				partPairs = SplitPairs(groupA, cfg.Ranks, false)
				rmesh.SetPartition(partPairs, true)
				if mesh != nil {
					mesh.SetPartition(partPairs, true)
				}
			case "heal":
				partPairs = nil
				rmesh.Heal()
				if mesh != nil {
					mesh.Heal()
				}
			case "quit":
				return nil
			case "abort":
				// Legacy command; in self-healing mode recovery is driven by
				// epochs, but acknowledge so a mixed launcher doesn't hang.
				stop()
				w.dumpTrace("abort")
				w.emit("aborted %s", tokenOf(cmd))
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
			w.dist.SetMembership(ev.members)
			w.dist.AdvanceEpoch(ev.epoch)
			stop()
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
			state.restoreStart = time.Now()
			// Dump before re-entering the attempt so the suspect/gossip/agree
			// window that produced this epoch is on disk even if the restore
			// itself dies.
			w.dumpTrace("restore")
			start(int(ev.epoch)-1, true)

		case err := <-done:
			w.finishMesh(mesh)
			mesh, done = nil, nil
			switch {
			case err == nil:
				w.emitSuccess(attempt, state)
				// Stay alive: a later failure elsewhere can still roll the
				// world back, in which case the epoch event restarts us.
			case errors.Is(err, mpi.ErrDown):
				// The mesh died under us — either our own teardown racing the
				// epoch event, or a peer's death stalling the world until the
				// detector confirms it. The epoch event drives the restart.
				w.emit("down %d", attempt)
			case errors.Is(err, stable.ErrFenced):
				// Minority side of a partition: the store refused a commit.
				// Report down and wait — the heal delivers a newer epoch
				// (majority committed without us) that restarts the attempt.
				w.emit("down %d", attempt)
			default:
				w.emit("error rank %d attempt %d: %v", cfg.Rank, attempt, err)
				return err
			}

		case epoch := <-drained:
			// A committed membership epoch removed this very slot — the
			// graceful shrink this node (or an operator via the ops plane)
			// asked for. Stop hosting and exit cleanly; peers re-partition.
			stop()
			w.emit("drained %d", epoch)
			return nil

		case epoch := <-evicted:
			err := fmt.Errorf("rank %d evicted by epoch %d while alive (false suspicion won agreement)", cfg.Rank, epoch)
			w.emit("error %v", err)
			return err
		}
	}
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
