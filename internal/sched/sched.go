// Package sched is the schedule explorer for the deterministic virtual
// schedule engine (transport.Scheduler): it sweeps seeds over failure
// scenarios, detects recovery divergence, and shrinks a failing schedule to
// a minimal interleaving that can be committed as a regression test.
//
// The methodology follows the related C/R literature: in-flight message
// capture across a recovery line is the hard correctness case, and it is
// only tractable with controlled, reproducible replay. Every run here is a
// pure function of (scenario, seed) — a failing seed reproduces
// byte-for-byte, and its recorded decision trace can be edited down while
// preserving the failure.
package sched

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"c3/internal/ckpt"
	"c3/internal/cluster"
	"c3/internal/mpi"
	"c3/internal/stable"
)

// Scenario is one stress workload configuration explored under many seeds.
type Scenario struct {
	Name     string
	Ranks    int
	Iters    int
	Failures []cluster.FailureSpec
	// AttemptFailures schedules several failures inside one attempt (see
	// cluster.Config.AttemptFailures); takes precedence over Failures.
	AttemptFailures [][]cluster.FailureSpec
	// Partitions schedules network-partition episodes (seeded trigger step,
	// optional heal) on the virtual scheduler. Scenario specs use hold
	// semantics: the in-process world has no failure detector, so a dropped
	// MPI frame would stall it forever, while a held frame models a split
	// shorter than the transport's retransmission patience.
	Partitions []cluster.PartitionSpec
	Policy     ckpt.Policy
	// App builds the workload; nil means StressApp.
	App func(iters int, sums *sync.Map) func(cluster.Env) error
	// Store, when non-nil, builds a fresh stable store for every run
	// (including the reference); nil means the runner's flat in-memory
	// default. Scenarios that exercise group-structured redundancy —
	// whole-group loss surviving via the cross-group parity shard — need a
	// grouped replicated store, and each seed needs its own instance.
	Store func() stable.Store
}

// groupedStore is the Store factory the two-level-topology scenarios share:
// a diskless replicated store over n ranks in groups of g, group-local
// rs(2,1) shards plus one cross-group parity shard per line.
func groupedStore(n, g int) func() stable.Store {
	return func() stable.Store {
		rs, err := stable.NewCodec("rs", 2, 1)
		if err != nil {
			panic(err) // static codec parameters; cannot fail
		}
		return stable.NewReplicatedStore(n, stable.WithDistCodec(rs), stable.WithDistGroupSize(g))
	}
}

func (sc Scenario) app(sums *sync.Map) func(cluster.Env) error {
	if sc.App != nil {
		return sc.App(sc.Iters, sums)
	}
	return StressApp(sc.Iters, sums)
}

// Scenarios is the registry swept by cmd/c3sched. The first four mirror
// the cluster stress test; the async variants drive the virtual commit
// pipeline through the same interleavings.
var Scenarios = []Scenario{
	{Name: "one-failure-mid", Ranks: 5, Iters: 12,
		Failures: []cluster.FailureSpec{{Rank: 2, AtPragma: 7}},
		Policy:   ckpt.Policy{EveryNthPragma: 4}},
	{Name: "one-failure-early", Ranks: 5, Iters: 12,
		Failures: []cluster.FailureSpec{{Rank: 0, AtPragma: 2}},
		Policy:   ckpt.Policy{EveryNthPragma: 3}},
	{Name: "two-failures", Ranks: 5, Iters: 12,
		Failures: []cluster.FailureSpec{{Rank: 1, AtPragma: 5}, {Rank: 3, AtPragma: 4}},
		Policy:   ckpt.Policy{EveryNthPragma: 2}},
	{Name: "failure-every-rank", Ranks: 5, Iters: 12,
		Failures: []cluster.FailureSpec{
			{Rank: 0, AtPragma: 3}, {Rank: 1, AtPragma: 4}, {Rank: 2, AtPragma: 5},
			{Rank: 3, AtPragma: 9}, {Rank: 4, AtPragma: 11}},
		Policy: ckpt.Policy{EveryNthPragma: 3}},
	{Name: "two-failures-async", Ranks: 5, Iters: 12,
		Failures: []cluster.FailureSpec{{Rank: 1, AtPragma: 5}, {Rank: 3, AtPragma: 4}},
		Policy:   ckpt.Policy{EveryNthPragma: 2, AsyncCommit: true}},
	{Name: "every-rank-async", Ranks: 5, Iters: 12,
		Failures: []cluster.FailureSpec{
			{Rank: 0, AtPragma: 3}, {Rank: 1, AtPragma: 4}, {Rank: 2, AtPragma: 5},
			{Rank: 3, AtPragma: 9}, {Rank: 4, AtPragma: 11}},
		Policy: ckpt.Policy{EveryNthPragma: 3, AsyncCommit: true}},
	{Name: "straddle-sync", Ranks: 5, Iters: 12, App: StraddleApp,
		Failures: []cluster.FailureSpec{{Rank: 1, AtPragma: 5}, {Rank: 3, AtPragma: 4}},
		Policy:   ckpt.Policy{EveryNthPragma: 2}},
	{Name: "straddle-async", Ranks: 5, Iters: 12, App: StraddleApp,
		Failures: []cluster.FailureSpec{{Rank: 1, AtPragma: 5}, {Rank: 3, AtPragma: 4}},
		Policy:   ckpt.Policy{EveryNthPragma: 2, AsyncCommit: true}},
	{Name: "collective-straddle-sync", Ranks: 5, Iters: 12, App: CollectiveStraddleApp,
		Failures: []cluster.FailureSpec{{Rank: 2, AtPragma: 5}, {Rank: 4, AtPragma: 4}},
		Policy:   ckpt.Policy{EveryNthPragma: 2}},
	{Name: "collective-straddle-async", Ranks: 5, Iters: 12, App: CollectiveStraddleApp,
		Failures: []cluster.FailureSpec{{Rank: 2, AtPragma: 5}, {Rank: 4, AtPragma: 4}},
		Policy:   ckpt.Policy{EveryNthPragma: 2, AsyncCommit: true}},
	// The same straddle with the rest of the wrapped collectives in the
	// train: Barrier, Gather, Scatter, Allgather, Alltoall, Alltoallv and
	// Reduce, every one of them cut by recovery lines.
	{Name: "collective-train-sync", Ranks: 5, Iters: 12, App: CollectiveTrainApp,
		Failures: []cluster.FailureSpec{{Rank: 2, AtPragma: 5}, {Rank: 4, AtPragma: 4}},
		Policy:   ckpt.Policy{EveryNthPragma: 2}},
	{Name: "collective-train-async", Ranks: 5, Iters: 12, App: CollectiveTrainApp,
		Failures: []cluster.FailureSpec{{Rank: 2, AtPragma: 5}, {Rank: 4, AtPragma: 4}},
		Policy:   ckpt.Policy{EveryNthPragma: 2, AsyncCommit: true}},
	// Two near-simultaneous failures inside one attempt (the self-healing
	// detector's hardest agreement case, here driven through the virtual
	// scheduler): whichever victim's pragma the schedule reaches first
	// tears the world down; depending on the interleaving the second may
	// or may not also fire before teardown, and recovery must converge
	// either way. Non-adjacent victims keep both replicas of every line
	// alive.
	{Name: "dual-failure-sync", Ranks: 5, Iters: 12,
		AttemptFailures: [][]cluster.FailureSpec{{{Rank: 1, AtPragma: 5}, {Rank: 3, AtPragma: 5}}},
		Policy:          ckpt.Policy{EveryNthPragma: 2}},
	{Name: "dual-failure-async", Ranks: 5, Iters: 12,
		AttemptFailures: [][]cluster.FailureSpec{{{Rank: 1, AtPragma: 5}, {Rank: 3, AtPragma: 5}}},
		Policy:          ckpt.Policy{EveryNthPragma: 2, AsyncCommit: true}},
	// A failure at the very first pragma of the recovery attempt: the
	// second victim dies while parts of the world may still be replaying
	// the restored line (failure during recovery), forcing a rollback of
	// the rollback.
	{Name: "failure-in-restore-sync", Ranks: 5, Iters: 12,
		AttemptFailures: [][]cluster.FailureSpec{
			{{Rank: 2, AtPragma: 6}}, {{Rank: 4, AtPragma: 1}}},
		Policy: ckpt.Policy{EveryNthPragma: 2}},
	{Name: "failure-in-restore-async", Ranks: 5, Iters: 12,
		AttemptFailures: [][]cluster.FailureSpec{
			{{Rank: 2, AtPragma: 6}}, {{Rank: 4, AtPragma: 1}}},
		Policy: ckpt.Policy{EveryNthPragma: 2, AsyncCommit: true}},
	// Partition scenarios: a seeded network split severs {3,4} from the
	// rest mid-run and heals within the attempt (hold semantics — see
	// Scenario.Partitions). The trigger step is jittered per seed, so the
	// sweep lands the split at many different protocol points; the recorded
	// trace carries the partition/heal decisions, so a failing seed shrinks
	// like any other schedule.
	{Name: "partition-symmetric", Ranks: 5, Iters: 12,
		Partitions: []cluster.PartitionSpec{
			{GroupA: []int{3, 4}, Hold: true, AtStep: 120, Jitter: 250, HealAfterSteps: 300}},
		Policy: ckpt.Policy{EveryNthPragma: 3}},
	// The half-open split: A's frames are delivered, B's answers are held
	// until the heal — collectives and ack planes see one-way connectivity.
	{Name: "partition-asymmetric", Ranks: 5, Iters: 12,
		Partitions: []cluster.PartitionSpec{
			{GroupA: []int{3, 4}, Asymmetric: true, Hold: true, AtStep: 120, Jitter: 250, HealAfterSteps: 300}},
		Policy: ckpt.Policy{EveryNthPragma: 3}},
	// The split lands early in the recovery attempt, while the world is
	// still agreeing on (and replaying) the restored line: the restore
	// collective itself is cut by the partition and must complete at the
	// heal.
	{Name: "partition-during-agreement", Ranks: 5, Iters: 12,
		Failures: []cluster.FailureSpec{{Rank: 2, AtPragma: 5}},
		Partitions: []cluster.PartitionSpec{
			{GroupA: []int{3, 4}, Hold: true, AtStep: 40, Jitter: 150, HealAfterSteps: 250, Attempt: 1}},
		Policy: ckpt.Policy{EveryNthPragma: 2}},
	// Divergent views: an asymmetric split overlaps a fail-stop failure, so
	// the two sides observe the death and the teardown at different logical
	// times; after the heal-and-restart, recovery must still converge to
	// the reference checksums.
	{Name: "partition-heal-divergent", Ranks: 5, Iters: 12,
		Failures: []cluster.FailureSpec{{Rank: 1, AtPragma: 6}},
		Partitions: []cluster.PartitionSpec{
			{GroupA: []int{3, 4}, Asymmetric: true, Hold: true, AtStep: 100, Jitter: 250, HealAfterSteps: 250}},
		Policy: ckpt.Policy{EveryNthPragma: 2, AsyncCommit: true}},
	// Two-level topology scenarios: 12 ranks in three checkpoint groups of
	// 4 over a grouped replicated store. group-loss kills group 1 (ranks
	// 4..7) as one fault domain — every group-local shard of the victims
	// dies with them, so recovery must reconstruct their lines from the
	// cross-group parity shards held by groups 0 and 2. The interleaving of
	// the four simultaneous deaths against in-flight commits varies per
	// seed.
	{Name: "group-loss-sync", Ranks: 12, Iters: 12,
		Failures: []cluster.FailureSpec{{Rank: 5, AtPragma: 5, Correlated: []int{4, 6, 7}}},
		Policy:   ckpt.Policy{EveryNthPragma: 2},
		Store:    groupedStore(12, 4)},
	{Name: "group-loss-async", Ranks: 12, Iters: 12,
		Failures: []cluster.FailureSpec{{Rank: 5, AtPragma: 5, Correlated: []int{4, 6, 7}}},
		Policy:   ckpt.Policy{EveryNthPragma: 2, AsyncCommit: true},
		Store:    groupedStore(12, 4)},
	// An interior rank of group 1 dies first; then group 1's delegate
	// (rank 4, its lowest member) dies at the very first pragma of the
	// recovery attempt, while parts of the world are still agreeing on and
	// replaying the restored line — the two-level analogue of
	// failure-in-restore, with the second death hitting the rank that
	// anchors the group's shard ring.
	{Name: "delegate-death-during-agree", Ranks: 12, Iters: 12,
		AttemptFailures: [][]cluster.FailureSpec{
			{{Rank: 5, AtPragma: 5}}, {{Rank: 4, AtPragma: 1}}},
		Policy: ckpt.Policy{EveryNthPragma: 2},
		Store:  groupedStore(12, 4)},
}

// ScenarioByName looks a scenario up in the registry.
func ScenarioByName(name string) (Scenario, bool) {
	for _, sc := range Scenarios {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// StressApp is the deterministic pseudo-random communication workload the
// explorer (and the cluster stress test) runs: every iteration each rank
// exchanges payloads with two neighbors via Irecv/Send/Wait, folds received
// data into a running checksum, and every third iteration participates in
// an Allreduce; pragmas sit at the iteration boundary. All state that
// matters — iteration counter, checksum, RNG state — is registered, so
// recovery must reproduce the failure-free checksums exactly.
func StressApp(iters int, sums *sync.Map) func(cluster.Env) error {
	return func(env cluster.Env) error {
		st := env.State()
		it := st.Int("it")
		sum := st.Int("sum")
		rng := st.Int("rng")
		if rng.Get() == 0 {
			rng.Set(1000003*env.Rank() + 17)
		}
		if _, err := env.Restore(); err != nil {
			return err
		}
		w := env.World()
		r, n := env.Rank(), env.Size()
		next := func() int {
			v := rng.Get()
			v = (v*1103515245 + 12345) & 0x7fffffff
			rng.Set(v)
			return v
		}
		for it.Get() < iters {
			right := (r + 1) % n
			left := (r - 1 + n) % n
			right2 := (r + 2) % n
			left2 := (r - 2 + 2*n) % n
			size1 := 1 + next()%64
			size2 := 1 + next()%16
			out1 := make([]byte, size1)
			out2 := make([]byte, size2)
			for i := range out1 {
				out1[i] = byte(next())
			}
			for i := range out2 {
				out2[i] = byte(next())
			}
			in1 := make([]byte, 64)
			in2 := make([]byte, 16)
			rid1, err := w.Irecv(in1, 64, mpi.TypeByte, left, 11)
			if err != nil {
				return err
			}
			rid2, err := w.Irecv(in2, 16, mpi.TypeByte, left2, 12)
			if err != nil {
				return err
			}
			if err := w.SendBytes(out1, right, 11); err != nil {
				return err
			}
			if err := w.SendBytes(out2, right2, 12); err != nil {
				return err
			}
			st1, err := w.Wait(rid1)
			if err != nil {
				return err
			}
			st2, err := w.Wait(rid2)
			if err != nil {
				return err
			}
			acc := sum.Get()
			for i := 0; i < st1.Bytes; i++ {
				acc = acc*31 + int(in1[i])
			}
			for i := 0; i < st2.Bytes; i++ {
				acc = acc*37 + int(in2[i])
			}
			sum.Set(acc & 0xffffffff)

			if it.Get()%3 == 2 {
				in := mpi.Int64Bytes([]int64{int64(sum.Get())})
				out := make([]byte, 8)
				if err := w.Allreduce(in, out, 1, mpi.TypeInt64, mpi.OpBXor); err != nil {
					return err
				}
				sum.Set(int(mpi.BytesInt64s(out)[0]) & 0xffffffff)
			}
			it.Add(1)
			if err := env.Checkpoint(); err != nil {
				return err
			}
		}
		sums.Store(r, sum.Get())
		return nil
	}
}

// StraddleApp is the crossing-request workload: every iteration posts the
// neighbor receive first, passes a checkpoint pragma with the request still
// pending, then sends and completes it — so non-blocking requests routinely
// straddle recovery lines (the paper's Section 4.1 request-table case). The
// receive buffer and request ID live in registered state; on recovery the
// buffer is re-bound to the restored crossing request with
// ReattachRecvBuffer, mirroring how C3 relies on checkpointed buffers
// keeping their addresses.
func StraddleApp(iters int, sums *sync.Map) func(cluster.Env) error {
	return func(env cluster.Env) error {
		st := env.State()
		it := st.Int("it")
		sum := st.Int("sum")
		rid := st.Int("rid")
		inflight := st.Bool("inflight")
		buf := st.Bytes("buf")
		restored, err := env.Restore()
		if err != nil {
			return err
		}
		w := env.World()
		r, n := env.Rank(), env.Size()
		payloadFor := func(rank, iter int) []byte {
			out := make([]byte, 8+(rank*7+iter*13)%24)
			for i := range out {
				out[i] = byte(rank*31 + iter*17 + i)
			}
			return out
		}
		// A fired pragma always sits between Irecv and Wait, so a restored
		// line always has one crossing receive in flight.
		resume := restored && inflight.Get()
		if resume {
			if err := cluster.LayerOf(env).ReattachRecvBuffer(rid.Get(), buf.Data(), len(buf.Data()), mpi.TypeByte); err != nil {
				return err
			}
		}
		for it.Get() < iters {
			left, right := (r-1+n)%n, (r+1)%n
			if !resume {
				buf.SetData(make([]byte, 32))
				id, err := w.Irecv(buf.Data(), 32, mpi.TypeByte, left, 7)
				if err != nil {
					return err
				}
				rid.Set(id)
				inflight.Set(true)
				if err := env.Checkpoint(); err != nil {
					return err
				}
			}
			resume = false
			if err := w.SendBytes(payloadFor(r, it.Get()), right, 7); err != nil {
				return err
			}
			stt, err := w.Wait(rid.Get())
			if err != nil {
				return err
			}
			inflight.Set(false)
			data := buf.Data()
			acc := sum.Get()
			for i := 0; i < stt.Bytes; i++ {
				acc = acc*131 + int(data[i])
			}
			sum.Set(acc & 0xffffffff)
			it.Add(1)
		}
		sums.Store(r, sum.Get())
		return nil
	}
}

// CollectiveStraddleApp is the collective-plane straddle workload: each
// iteration does a rank-skewed amount of point-to-point chatter, passes the
// checkpoint pragma, and then immediately runs a train of collectives
// (Allreduce, Scan, and a rotating-root Bcast). Because ranks reach the
// pragma at different logical times, a checkpoint line routinely cuts
// through the collectives' internal message plane: a rank that has started
// the line receives collective-plane traffic from ranks that have not
// (late messages on the collective context), and the collective result log
// must carry straddling results across recovery. This covers the plane the
// Irecv-straddle workload cannot — its crossings live on the
// point-to-point context only.
func CollectiveStraddleApp(iters int, sums *sync.Map) func(cluster.Env) error {
	return collectiveStraddle(iters, sums, straddleTrain)
}

// CollectiveTrainApp is CollectiveStraddleApp with the other wrapped
// collectives in the train (see trainRest).
func CollectiveTrainApp(iters int, sums *sync.Map) func(cluster.Env) error {
	return collectiveStraddle(iters, sums, trainRest)
}

// A collTrain runs iteration i's collectives on rank r of n, whose
// checksum is sum, and returns what they add to the checksum.
type collTrain func(w cluster.Comm, r, n, i, sum int) (int, error)

func collectiveStraddle(iters int, sums *sync.Map, train collTrain) func(cluster.Env) error {
	return func(env cluster.Env) error {
		st := env.State()
		it := st.Int("it")
		sum := st.Int("sum")
		inColl := st.Bool("inColl") // pragma passed, this iteration's collectives pending
		restored, err := env.Restore()
		if err != nil {
			return err
		}
		w := env.World()
		r, n := env.Rank(), env.Size()
		// The pragma sits between an iteration's point-to-point phase and its
		// collective phase, so every recovery line restores to inColl=true:
		// the re-execution must skip the already-counted pre-pragma exchange
		// and resume directly at the collectives the line cut through.
		resume := restored && inColl.Get()
		for it.Get() < iters {
			i := it.Get()
			if !resume {
				// One matched neighbor exchange per iteration, then
				// rank-skewed self-traffic: each rank passes a different
				// number of scheduling points before the pragma, so lines
				// start at staggered points (self-messages are rank-local,
				// so the skew cannot deadlock).
				right, left := (r+1)%n, (r-1+n)%n
				out := mpi.Int64Bytes([]int64{int64(r*1000 + i*10)})
				in := make([]byte, 8)
				if _, err := w.Sendrecv(out, 1, mpi.TypeInt64, right, 21,
					in, 1, mpi.TypeInt64, left, 21); err != nil {
					return err
				}
				sum.Set((sum.Get()*31 + int(mpi.BytesInt64s(in)[0])) & 0xffffffff)
				for k := 0; k < (r+i)%3; k++ {
					if err := w.SendBytes([]byte{byte(k)}, r, 23); err != nil {
						return err
					}
					if _, err := w.RecvBytes(make([]byte, 1), r, 23); err != nil {
						return err
					}
				}
				inColl.Set(true)
				if err := env.Checkpoint(); err != nil {
					return err
				}
			}
			resume = false
			// The collective train right after the pragma: its messages
			// straddle the line whenever peers are still pre-pragma.
			v, err := train(w, r, n, i, sum.Get())
			if err != nil {
				return err
			}
			sum.Set((sum.Get()*37 + v) & 0xffffffff)
			inColl.Set(false)
			it.Add(1)
		}
		sums.Store(r, sum.Get())
		return nil
	}
}

// straddleTrain is an Allreduce, a Scan and a Bcast from a rotating root.
func straddleTrain(w cluster.Comm, r, n, i, sum int) (int, error) {
	scratch8 := make([]byte, 8)
	in := mpi.Int64Bytes([]int64{int64(sum)})
	if err := w.Allreduce(in, scratch8, 1, mpi.TypeInt64, mpi.OpBXor); err != nil {
		return 0, err
	}
	allred := int(mpi.BytesInt64s(scratch8)[0])
	if err := w.Scan(in, scratch8, 1, mpi.TypeInt64, mpi.OpSum); err != nil {
		return 0, err
	}
	scanned := int(mpi.BytesInt64s(scratch8)[0])
	root := i % n
	bcast := mpi.Int64Bytes([]int64{-1})
	if r == root {
		bcast = mpi.Int64Bytes([]int64{int64(root*7919 + i)}) // pure function of (root, i)
	}
	if err := w.Bcast(bcast, 1, mpi.TypeInt64, root); err != nil {
		return 0, err
	}
	rooted := int(mpi.BytesInt64s(bcast)[0])
	return allred*5 + scanned*3 + rooted, nil
}

// trainRest is every other wrapped collective, rooted at a rotating rank:
// Barrier, Gather, Scatter (the gathered pairs go back to their senders),
// Allgather, Alltoall, Alltoallv (rank j sends 8 or 16 bytes to k by the
// parity of j+k) and Reduce. Every buffer any rank reads back is folded
// into the result, which is a pure function of (r, i, sum).
func trainRest(w cluster.Comm, r, n, i, sum int) (int, error) {
	root := i % n
	v := 0
	mix := func(b []byte) {
		for _, x := range mpi.BytesInt64s(b) {
			v = (v*31 + int(x)) & 0xffffffff
		}
	}
	mine := mpi.Int64Bytes([]int64{int64(sum), int64(r*10 + i)})
	all, pair, x := make([]byte, 16*n), make([]byte, 16), make([]byte, 16*n)
	cnts, displs := make([]int, n), make([]int, n)
	for j := range cnts {
		cnts[j] = 8 * ((r+j)%2 + 1)
		if j > 0 {
			displs[j] = displs[j-1] + cnts[j-1]
		}
	}
	for _, step := range []func() ([]byte, error){
		func() ([]byte, error) { return nil, w.Barrier() },
		func() ([]byte, error) { return all, w.Gather(mine, 2, mpi.TypeInt64, all, root) },
		func() ([]byte, error) { return pair, w.Scatter(all, 2, mpi.TypeInt64, pair, root) },
		func() ([]byte, error) { return all, w.Allgather(pair, 2, mpi.TypeInt64, all) },
		func() ([]byte, error) { return x, w.Alltoall(all, 2, mpi.TypeInt64, x) },
		func() ([]byte, error) { return all, w.Alltoallv(x, cnts, displs, all, cnts, displs) },
		func() ([]byte, error) { return pair, w.Reduce(mine, pair, 2, mpi.TypeInt64, mpi.OpSum, root) },
	} {
		b, err := step()
		if err != nil {
			return 0, err
		}
		mix(b)
	}
	return v, nil
}

// Reference computes the scenario's failure-free per-rank checksums. The
// workload is deterministic per rank, so the result is independent of the
// schedule; it runs once under a fixed seed.
func Reference(sc Scenario) (map[int]int, error) {
	var sums sync.Map
	cfg := cluster.Config{
		Ranks: sc.Ranks,
		App:   sc.app(&sums),
		Seed:  1,
	}
	if sc.Store != nil {
		cfg.Store = sc.Store()
		defer closeStore(cfg.Store)
	}
	if _, err := cluster.Run(cfg); err != nil {
		return nil, err
	}
	ref := make(map[int]int, sc.Ranks)
	for r := 0; r < sc.Ranks; r++ {
		v, ok := sums.Load(r)
		if !ok {
			return nil, fmt.Errorf("sched: reference run produced no result for rank %d", r)
		}
		ref[r] = v.(int)
	}
	return ref, nil
}

// Outcome reports one explored run.
type Outcome struct {
	Seed     int64
	Failed   bool
	Reason   string
	Attempts int
	// Divergent maps rank -> [recovered, expected] for checksum mismatches.
	Divergent map[int][2]int
	// Schedule is the recorded decision trace (replayable).
	Schedule *cluster.Schedule
}

// runTimeout bounds one virtual run. Stalls (every rank blocked) are
// detected by the engine itself and fail fast; this guard only catches
// app-level livelock (a rank spinning without ever blocking). Note that a
// timed-out run's goroutines are abandoned, not cancelled — cluster.Run
// has no stop hook — so each timeout leaks a spinning world for the rest
// of the process. Acceptable for a last-resort guard on a sweep binary;
// do not lower this far enough to trip on slow-but-live runs.
const runTimeout = 2 * time.Minute

// runConfig executes one scenario run (seeded or replayed) and classifies
// the outcome.
func runConfig(sc Scenario, ref map[int]int, cfg cluster.Config) Outcome {
	var sums sync.Map
	cfg.Ranks = sc.Ranks
	cfg.App = sc.app(&sums)
	cfg.Failures = sc.Failures
	cfg.AttemptFailures = sc.AttemptFailures
	cfg.Partitions = sc.Partitions
	cfg.Policy = sc.Policy
	if sc.Store != nil {
		cfg.Store = sc.Store()
	}

	out := Outcome{Seed: cfg.Seed}
	type done struct {
		res *cluster.Result
		err error
	}
	ch := make(chan done, 1)
	go func() {
		res, err := cluster.Run(cfg)
		ch <- done{res, err}
	}()
	select {
	case d := <-ch:
		// Per-scenario stores are released only on this path: a timed-out
		// run's goroutines are abandoned (see runTimeout) and may still
		// touch the store, so the timeout branch leaks it along with them.
		closeStore(cfg.Store)
		if d.res != nil {
			out.Attempts = d.res.Attempts
			out.Schedule = d.res.Schedule
		}
		if d.err != nil {
			out.Failed = true
			out.Reason = d.err.Error()
			return out
		}
	// Wall-clock watchdog around the whole virtual run: it detects
	// app-level livelock and is never part of the replayed schedule.
	case <-time.After(runTimeout): //c3lint:allow determinism harness watchdog outside the schedule
		out.Failed = true
		out.Reason = "timeout (app-level livelock?)"
		return out
	}
	out.Divergent = make(map[int][2]int)
	for r := 0; r < sc.Ranks; r++ {
		v, ok := sums.Load(r)
		if !ok {
			out.Failed = true
			out.Reason = fmt.Sprintf("rank %d produced no result", r)
			return out
		}
		if got := v.(int); got != ref[r] {
			out.Divergent[r] = [2]int{got, ref[r]}
		}
	}
	if len(out.Divergent) > 0 {
		out.Failed = true
		out.Reason = fmt.Sprintf("checksum divergence on %d ranks", len(out.Divergent))
	}
	return out
}

// RunSeed executes the scenario under one seed. Seed 0 is rejected: it is
// cluster.Config's "virtual engine off" value, and running it would
// silently fall back to nondeterministic OS scheduling where byte-for-byte
// reproduction is promised.
func RunSeed(sc Scenario, ref map[int]int, seed int64) Outcome {
	if seed == 0 {
		return Outcome{Seed: 0, Failed: true,
			Reason: "seed 0 is reserved (it disables the virtual scheduler); use a nonzero seed"}
	}
	o := runConfig(sc, ref, cluster.Config{Seed: seed})
	o.Seed = seed
	return o
}

// RunSchedule replays a recorded (possibly edited) schedule.
func RunSchedule(sc Scenario, ref map[int]int, s *cluster.Schedule) Outcome {
	o := runConfig(sc, ref, cluster.Config{Replay: s})
	o.Seed = s.Seed
	return o
}

// SweepResult summarizes a seed sweep.
type SweepResult struct {
	Ran      int
	Failures []Outcome
}

// Sweep runs seeds [from, from+n) and collects failing outcomes, skipping
// the reserved seed 0. With stopAtFirst it returns at the first failure.
func Sweep(sc Scenario, ref map[int]int, from, n int64, stopAtFirst bool) SweepResult {
	var res SweepResult
	for seed := from; seed < from+n; seed++ {
		if seed == 0 {
			continue
		}
		o := RunSeed(sc, ref, seed)
		res.Ran++
		if o.Failed {
			res.Failures = append(res.Failures, o)
			if stopAtFirst {
				break
			}
		}
	}
	return res
}

// closeStore releases a per-scenario store's background resources; nil and
// closerless stores are no-ops.
func closeStore(st stable.Store) {
	if c, ok := st.(interface{ Close() }); ok {
		c.Close()
	}
}

// ErrNotReproducible reports that a recorded schedule no longer fails when
// replayed (the defect is schedule-external, or already fixed).
var ErrNotReproducible = errors.New("sched: schedule does not reproduce the failure")
