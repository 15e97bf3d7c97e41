// Package c3 is the public API of the C3-Go reproduction: a scalable
// application-level checkpoint-recovery system for message-passing programs,
// after Schulz, Bronevetsky, Fernandes, Marques, Pingali and Stodghill,
// "Implementation and Evaluation of a Scalable Application-level
// Checkpoint-Recovery Scheme for MPI Programs" (SC 2004).
//
// Applications are functions of an Env. They register their state, call
// Restore once, and mark potential checkpoint locations with Checkpoint —
// the analogue of C3's #pragma ccc checkpoint. The runtime launches one
// goroutine per rank over an MPI-semantics message-passing substrate, runs
// the protocol layer between the application and the substrate, injects
// fail-stop failures if asked, and restarts the world from the last
// committed recovery line:
//
//	app := func(env c3.Env) error {
//	    it := env.State().Int("it")
//	    if _, err := env.Restore(); err != nil {
//	        return err
//	    }
//	    for it.Get() < 100 {
//	        // ... compute and communicate via env.World() ...
//	        it.Add(1)
//	        if err := env.Checkpoint(); err != nil {
//	            return err
//	        }
//	    }
//	    return nil
//	}
//	res, err := c3.Run(c3.Config{Ranks: 8, App: app,
//	    Policy: c3.Policy{EveryNthPragma: 10}})
//
// Checkpoints go to a pluggable stable store (memory, disk, or the
// diskless replicated store from NewReplicatedStore); with
// Policy.AsyncCommit the write-out runs on a per-rank background committer
// so the application resumes immediately after local capture.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured evaluation.
package c3

import (
	"c3/internal/ckpt"
	"c3/internal/cluster"
	"c3/internal/mpi"
	"c3/internal/stable"
	"c3/internal/statesave"
	"c3/internal/transport"
)

// Env is the per-rank application environment: world access, registered
// state, and the checkpoint pragma.
type Env = cluster.Env

// Comm is the communicator interface applications program against.
type Comm = cluster.Comm

// Config configures a run.
type Config = cluster.Config

// Result reports a completed run.
type Result = cluster.Result

// RankStats carries one rank's protocol counters.
type RankStats = cluster.RankStats

// FailureSpec schedules one injected fail-stop failure.
type FailureSpec = cluster.FailureSpec

// Schedule is a recorded deterministic-scheduler execution (one decision
// trace per restart attempt). Set Config.Seed to run under the virtual
// scheduler and record one; set Config.Replay to re-execute it.
type Schedule = cluster.Schedule

// Policy decides when a checkpoint pragma actually takes a checkpoint.
type Policy = ckpt.Policy

// ProtocolStats aggregates the protocol layer's counters.
type ProtocolStats = ckpt.Stats

// ErrInjectedFailure marks an injected fail-stop failure.
var ErrInjectedFailure = cluster.ErrInjectedFailure

// Run launches the world, runs the application on every rank, and restarts
// from the last committed recovery line after injected failures.
func Run(cfg Config) (*Result, error) { return cluster.Run(cfg) }

// LayerOf extracts the protocol layer from a checkpointed Env (nil when
// running Direct); it exposes Mode, Epoch, Stats and the Sync commit fence.
func LayerOf(env Env) *ckpt.Layer { return cluster.LayerOf(env) }

// Message-passing types re-exported from the substrate.
type (
	// Status describes a completed receive.
	Status = mpi.Status
	// Datatype describes an element layout (primitive or derived).
	Datatype = mpi.Datatype
	// Op is a reduction operation.
	Op = mpi.Op
)

// Receive wildcards.
const (
	// AnySource matches any sender.
	AnySource = mpi.AnySource
	// AnyTag matches any tag.
	AnyTag = mpi.AnyTag
)

// Predefined datatypes.
var (
	TypeByte       = mpi.TypeByte
	TypeInt64      = mpi.TypeInt64
	TypeFloat64    = mpi.TypeFloat64
	TypeComplex128 = mpi.TypeComplex128
)

// Built-in reduction operations.
var (
	OpSum  = mpi.OpSum
	OpProd = mpi.OpProd
	OpMax  = mpi.OpMax
	OpMin  = mpi.OpMin
	OpBAnd = mpi.OpBAnd
	OpBOr  = mpi.OpBOr
	OpBXor = mpi.OpBXor
	OpLAnd = mpi.OpLAnd
	OpLOr  = mpi.OpLOr
)

// Typed-buffer helpers (the packing boundary between Go slices and message
// payloads).
var (
	PutFloat64s    = mpi.PutFloat64s
	GetFloat64s    = mpi.GetFloat64s
	Float64Bytes   = mpi.Float64Bytes
	BytesFloat64s  = mpi.BytesFloat64s
	PutInt64s      = mpi.PutInt64s
	GetInt64s      = mpi.GetInt64s
	Int64Bytes     = mpi.Int64Bytes
	BytesInt64s    = mpi.BytesInt64s
	PutComplex128s = mpi.PutComplex128s
	GetComplex128s = mpi.GetComplex128s
)

// Derived-datatype constructors.
var (
	Contiguous = mpi.Contiguous
	Vector     = mpi.Vector
	Indexed    = mpi.Indexed
	StructType = mpi.Struct
)

// State registration types.
type (
	// StateRegistry holds an application's registered, checkpointed state.
	StateRegistry = statesave.Registry
	// Heap is the checkpointable allocator (live-data-only accounting).
	Heap = statesave.Heap
)

// Stable-storage implementations for checkpoints.
type Store = stable.Store

// Storage constructors.
var (
	// NewMemStore returns an in-memory checkpoint store.
	NewMemStore = stable.NewMemStore
	// NewNullStore returns a store that encodes but discards checkpoints
	// (the paper's Configuration #2).
	NewNullStore = stable.NewNullStore
	// NewDiskStore returns an on-disk checkpoint store with atomic commit
	// (the paper's Configuration #3).
	NewDiskStore = stable.NewDiskStore
	// NewReplicatedStore returns the diskless, ReStore-style store: one
	// replication node per rank over an in-memory interconnect, each
	// rank's checkpoints in its node's memory with fragments replicated to
	// its +1/+2 neighbors, and a failed rank's lines reassembled from
	// surviving peers — the engine multi-process worlds run over TCP.
	// Pair it with Policy.AsyncCommit for checkpointing that neither
	// blocks the application nor touches a disk.
	NewReplicatedStore = stable.NewReplicatedStore
	// NewDelayedStore wraps a store with an artificial write cost, for
	// experiments that emulate slow stable storage deterministically.
	NewDelayedStore = stable.NewDelayedStore
)

// Codec is the replicated store's (k, m) erasure code over GF(2^8): any k
// of its k+m shards reconstruct a checkpoint.
type Codec = stable.Codec

// Replicated-store options.
var (
	// WithCodec sets the replicated store's codec. The default, dup, keeps
	// a local copy and ships whole copies to the +1/+2 ring successors;
	// with k > 1 the k+m shards land on distinct ring successors (rotated
	// parity placement), so rs k=4,m=2 matches dup's two-loss tolerance at
	// roughly half the memory and interconnect bytes.
	WithCodec = stable.WithDistCodec
	// NewCodec builds a codec from a preset name and geometry: "dup" (1, c)
	// whole copies, "xor" (k, 1), "rs" (k, m).
	NewCodec = stable.NewCodec
)

// WithLatency configures an artificial interconnect latency model for the
// transport (used to emulate different clusters).
var WithLatency = transport.WithLatency

// ConstantLatency builds a latency model with fixed per-message delay plus
// a bandwidth term.
var ConstantLatency = transport.ConstantLatency
