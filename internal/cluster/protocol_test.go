package cluster_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"c3/internal/ckpt"
	"c3/internal/cluster"
	"c3/internal/mpi"
	"c3/internal/stable"
)

// run executes a cluster configuration with a deadlock guard.
func run(t *testing.T, cfg cluster.Config) *cluster.Result {
	t.Helper()
	type out struct {
		res *cluster.Result
		err error
	}
	ch := make(chan out, 1)
	go func() {
		r, e := cluster.Run(cfg)
		ch <- out{r, e}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatalf("run failed: %v", o.err)
		}
		return o.res
	case <-time.After(60 * time.Second):
		t.Fatal("run timed out (protocol deadlock?)")
		return nil
	}
}

// recorder collects per-rank values across attempts for assertions.
type recorder struct {
	mu   sync.Mutex
	vals map[string][]int64
}

func newRecorder() *recorder { return &recorder{vals: make(map[string][]int64)} }

func (r *recorder) add(key string, v int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.vals[key] = append(r.vals[key], v)
}

func (r *recorder) get(key string) []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int64(nil), r.vals[key]...)
}

func TestCheckpointCommitsWithoutTraffic(t *testing.T) {
	store := stable.NewMemStore()
	cfg := cluster.Config{
		Ranks: 4,
		Store: store,
		App: func(env cluster.Env) error {
			if _, err := env.Restore(); err != nil {
				return err
			}
			if err := env.CheckpointNow(); err != nil {
				return err
			}
			return cluster.LayerOf(env).Sync()
		},
	}
	res := run(t, cfg)
	if res.Attempts != 1 {
		t.Fatalf("attempts = %d", res.Attempts)
	}
	for r := 0; r < 4; r++ {
		v, ok, err := store.LastCommitted(r)
		if err != nil || !ok || v != 1 {
			t.Fatalf("rank %d: committed=(%d,%v,%v)", r, v, ok, err)
		}
	}
	for _, rs := range res.Stats {
		if rs.Stats.CheckpointsTaken != 1 {
			t.Fatalf("rank %d took %d checkpoints", rs.Rank, rs.Stats.CheckpointsTaken)
		}
	}
}

// TestFigure2LateMessage reproduces the late message of the paper's
// Figure 2: sent before the sender's line, received after the receiver's
// line. It must be delivered normally AND logged, and the line must commit.
func TestFigure2LateMessage(t *testing.T) {
	store := stable.NewMemStore()
	rec := newRecorder()
	cfg := cluster.Config{
		Ranks: 2,
		Store: store,
		App: func(env cluster.Env) error {
			st := env.State()
			phase := st.Int("phase")
			got := st.Int("got")
			if _, err := env.Restore(); err != nil {
				return err
			}
			w := env.World()
			switch env.Rank() {
			case 0:
				if phase.Get() < 1 {
					if err := w.SendBytes([]byte{42}, 1, 7); err != nil {
						return err
					}
					phase.Set(1)
					if err := env.CheckpointNow(); err != nil {
						return err
					}
				}
			case 1:
				if phase.Get() < 1 {
					phase.Set(1)
					if err := env.CheckpointNow(); err != nil {
						return err
					}
				}
				if phase.Get() < 2 {
					var buf [1]byte
					if _, err := w.RecvBytes(buf[:], 0, 7); err != nil {
						return err
					}
					got.Set(int(buf[0]))
					phase.Set(2)
				}
				rec.add("got", int64(got.Get()))
			}
			return cluster.LayerOf(env).Sync()
		},
	}
	res := run(t, cfg)
	if got := rec.get("got"); len(got) != 1 || got[0] != 42 {
		t.Fatalf("receiver got %v", got)
	}
	if res.Stats[1].Stats.LateLogged != 1 {
		t.Fatalf("rank 1 logged %d late messages, want 1", res.Stats[1].Stats.LateLogged)
	}
	for r := 0; r < 2; r++ {
		if v, ok, _ := store.LastCommitted(r); !ok || v != 1 {
			t.Fatalf("rank %d: line not committed (v=%d ok=%v)", r, v, ok)
		}
	}
}

// TestFigure2EarlyMessage reproduces the early message: sent after the
// sender's line, received before the receiver's line. The receiver must
// record its signature in the Early-Message-Registry.
func TestFigure2EarlyMessage(t *testing.T) {
	rec := newRecorder()
	cfg := cluster.Config{
		Ranks: 2,
		App: func(env cluster.Env) error {
			st := env.State()
			phase := st.Int("phase")
			got := st.Int("got")
			if _, err := env.Restore(); err != nil {
				return err
			}
			w := env.World()
			switch env.Rank() {
			case 0:
				if phase.Get() < 1 {
					phase.Set(1)
					if err := env.CheckpointNow(); err != nil {
						return err
					}
				}
				if phase.Get() < 2 {
					if err := w.SendBytes([]byte{43}, 1, 8); err != nil {
						return err
					}
					phase.Set(2)
				}
			case 1:
				if phase.Get() < 1 {
					var buf [1]byte
					if _, err := w.RecvBytes(buf[:], 0, 8); err != nil {
						return err
					}
					got.Set(int(buf[0]))
					rec.add("early", int64(cluster.LayerOf(env).Stats().EarlyRecorded))
					phase.Set(1)
					if err := env.CheckpointNow(); err != nil {
						return err
					}
				}
				rec.add("got", int64(got.Get()))
			}
			return cluster.LayerOf(env).Sync()
		},
	}
	run(t, cfg)
	if got := rec.get("got"); len(got) != 1 || got[0] != 43 {
		t.Fatalf("receiver got %v", got)
	}
	if early := rec.get("early"); len(early) != 1 || early[0] != 1 {
		t.Fatalf("early recorded %v, want [1]", early)
	}
}

// TestLateReplayAfterFailure: the receiver's post-line receive must be
// replayed from the Late-Message-Registry after a failure, because the
// sender (whose send was pre-line) does not re-send it.
func TestLateReplayAfterFailure(t *testing.T) {
	rec := newRecorder()
	cfg := cluster.Config{
		Ranks:    2,
		Failures: []cluster.FailureSpec{{Rank: 0, AtPragma: 2}},
		App: func(env cluster.Env) error {
			st := env.State()
			phase := st.Int("phase")
			got := st.Int("got")
			if _, err := env.Restore(); err != nil {
				return err
			}
			w := env.World()
			switch env.Rank() {
			case 0:
				if phase.Get() < 1 {
					if err := w.SendBytes([]byte{42}, 1, 7); err != nil {
						return err
					}
					phase.Set(1)
					if err := env.CheckpointNow(); err != nil { // pragma 1
						return err
					}
				}
			case 1:
				if phase.Get() < 1 {
					phase.Set(1)
					if err := env.CheckpointNow(); err != nil {
						return err
					}
				}
				if phase.Get() < 2 {
					var buf [1]byte
					if _, err := w.RecvBytes(buf[:], 0, 7); err != nil {
						return err
					}
					got.Set(int(buf[0]))
					phase.Set(2)
					rec.add("got", int64(got.Get()))
				}
			}
			if err := cluster.LayerOf(env).Sync(); err != nil {
				return err
			}
			return env.Checkpoint() // pragma 2: rank 0 dies here on attempt 0
		},
	}
	res := run(t, cfg)
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", res.Attempts)
	}
	// The receive ran twice: once for real (attempt 0, logged) and once
	// replayed from the log (attempt 1).
	if got := rec.get("got"); len(got) != 2 || got[0] != 42 || got[1] != 42 {
		t.Fatalf("got values %v", got)
	}
	if res.Stats[1].Stats.ReplayedLate != 1 {
		t.Fatalf("rank 1 replayed %d late messages, want 1", res.Stats[1].Stats.ReplayedLate)
	}
}

// TestLateReplayKeepsBytesAsSent: a late message's payload is logged when
// it arrives and replayed after a failure with the bytes it was sent with,
// though the sender overwrote its buffer as soon as SendBytes returned and
// the in-memory interconnect hands messages over by reference. The go
// message sent after the overwrite carries the overwritten bytes; it is
// late too, and is received first, so the payload is logged only after
// the overwrite, and after a later message of the same size was packed.
func TestLateReplayKeepsBytesAsSent(t *testing.T) {
	const tagData, tagGo = 7, 8
	sent := bytes.Repeat([]byte("late"), 256)
	rec := newRecorder()
	cfg := cluster.Config{
		Ranks:    2,
		Failures: []cluster.FailureSpec{{Rank: 0, AtPragma: 2}},
		App: func(env cluster.Env) error {
			phase := env.State().Int("phase")
			if _, err := env.Restore(); err != nil {
				return err
			}
			w := env.World()
			if phase.Get() < 1 {
				if env.Rank() == 0 {
					buf := bytes.Clone(sent)
					if err := w.SendBytes(buf, 1, tagData); err != nil {
						return err
					}
					copy(buf, bytes.Repeat([]byte{'!'}, len(buf)))
					if err := w.SendBytes(buf, 1, tagGo); err != nil {
						return err
					}
				}
				phase.Set(1)
				if err := env.CheckpointNow(); err != nil { // pragma 1
					return err
				}
			}
			if env.Rank() == 1 && phase.Get() < 2 {
				got := make([]byte, len(sent))
				if _, err := w.RecvBytes(make([]byte, len(sent)), 0, tagGo); err != nil {
					return err
				}
				if _, err := w.RecvBytes(got, 0, tagData); err != nil {
					return err
				}
				if bytes.Equal(got, sent) {
					rec.add("intact", 1)
				}
				phase.Set(2)
			}
			if err := cluster.LayerOf(env).Sync(); err != nil {
				return err
			}
			return env.Checkpoint() // pragma 2: rank 0 dies here on attempt 0
		},
	}
	res := run(t, cfg)
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", res.Attempts)
	}
	// Received for real on attempt 0, then replayed from the log.
	if n := len(rec.get("intact")); n != 2 {
		t.Fatalf("%d of 2 receives saw the bytes as sent", n)
	}
	if res.Stats[1].Stats.ReplayedLate != 2 {
		t.Fatalf("rank 1 replayed %d late messages, want 2", res.Stats[1].Stats.ReplayedLate)
	}
}

// TestEarlySuppressionAfterFailure: the receiver's checkpoint already
// contains the early message's effect, so the re-executing sender's re-send
// must be suppressed via the Was-Early-Registry.
func TestEarlySuppressionAfterFailure(t *testing.T) {
	rec := newRecorder()
	cfg := cluster.Config{
		Ranks:    2,
		Failures: []cluster.FailureSpec{{Rank: 1, AtPragma: 2}},
		App: func(env cluster.Env) error {
			st := env.State()
			phase := st.Int("phase")
			got := st.Int("got")
			if _, err := env.Restore(); err != nil {
				return err
			}
			w := env.World()
			switch env.Rank() {
			case 0:
				if phase.Get() < 1 {
					phase.Set(1)
					if err := env.CheckpointNow(); err != nil { // pragma 1
						return err
					}
				}
				if phase.Get() < 2 {
					if err := w.SendBytes([]byte{43}, 1, 8); err != nil {
						return err
					}
					phase.Set(2)
				}
			case 1:
				if phase.Get() < 1 {
					var buf [1]byte
					if _, err := w.RecvBytes(buf[:], 0, 8); err != nil {
						return err
					}
					got.Set(int(buf[0]))
					phase.Set(1)
					if err := env.CheckpointNow(); err != nil { // pragma 1
						return err
					}
				}
				rec.add("got", int64(got.Get()))
			}
			if err := cluster.LayerOf(env).Sync(); err != nil {
				return err
			}
			return env.Checkpoint() // pragma 2: rank 1 dies here on attempt 0
		},
	}
	res := run(t, cfg)
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", res.Attempts)
	}
	// got is recorded once per attempt; both must see the value exactly once.
	if got := rec.get("got"); len(got) != 2 || got[0] != 43 || got[1] != 43 {
		t.Fatalf("got values %v", got)
	}
	if res.Stats[0].Stats.SuppressedSends != 1 {
		t.Fatalf("rank 0 suppressed %d sends, want 1", res.Stats[0].Stats.SuppressedSends)
	}
}

// TestWildcardPinning: wildcard receives of intra-epoch messages during
// non-deterministic logging must be pinned by the logged signatures so that
// recovery reproduces the original match order.
func TestWildcardPinning(t *testing.T) {
	rec := newRecorder()
	const msgsPerSender = 3
	cfg := cluster.Config{
		Ranks:    4,
		Failures: []cluster.FailureSpec{{Rank: 1, AtPragma: 2}},
		App: func(env cluster.Env) error {
			st := env.State()
			phase := st.Int("phase")
			if _, err := env.Restore(); err != nil {
				return err
			}
			w := env.World()
			layer := cluster.LayerOf(env)
			switch env.Rank() {
			case 0: // wildcard receiver
				if phase.Get() < 1 {
					phase.Set(1)
					if err := env.CheckpointNow(); err != nil {
						return err
					}
				}
				if phase.Get() < 2 {
					hash := int64(17)
					for i := 0; i < 2*msgsPerSender; i++ {
						var buf [1]byte
						stt, err := w.RecvBytes(buf[:], mpi.AnySource, 5)
						if err != nil {
							return err
						}
						hash = hash*31 + int64(stt.Source)*100 + int64(buf[0])
					}
					rec.add("hash", hash)
					phase.Set(2)
				}
			case 1, 2: // senders: checkpoint first, then send intra-epoch
				if phase.Get() < 1 {
					phase.Set(1)
					if err := env.CheckpointNow(); err != nil {
						return err
					}
				}
				if phase.Get() < 2 {
					for i := 0; i < msgsPerSender; i++ {
						if err := w.SendBytes([]byte{byte(10*env.Rank() + i)}, 0, 5); err != nil {
							return err
						}
					}
					phase.Set(2)
				}
			case 3: // laggard: keeps everyone in NonDet-Log during the sends
				if phase.Get() < 1 {
					// Wait for a token showing the receiver is done, then
					// join the checkpoint.
					var buf [1]byte
					if _, err := w.RecvBytes(buf[:], 0, 6); err != nil {
						return err
					}
					phase.Set(1)
					if err := env.CheckpointNow(); err != nil {
						return err
					}
				}
			}
			if env.Rank() == 0 && phase.Get() == 2 {
				if err := w.SendBytes([]byte{1}, 3, 6); err != nil {
					return err
				}
				phase.Set(3)
			}
			if err := layer.Sync(); err != nil {
				return err
			}
			return env.Checkpoint() // pragma 2: rank 1 dies here on attempt 0
		},
	}
	res := run(t, cfg)
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", res.Attempts)
	}
	hashes := rec.get("hash")
	if len(hashes) != 2 {
		t.Fatalf("hash recorded %d times, want 2 (one per attempt)", len(hashes))
	}
	if hashes[0] != hashes[1] {
		t.Fatalf("wildcard match order diverged across recovery: %d vs %d", hashes[0], hashes[1])
	}
	if res.Stats[0].Stats.PinnedWildcards == 0 {
		t.Fatal("no wildcard receives were pinned during recovery")
	}
}

// TestLateWildcardOrderPreserved: wildcard receives completed by LATE
// messages replay in original arrival order across signatures.
func TestLateWildcardOrderPreserved(t *testing.T) {
	rec := newRecorder()
	cfg := cluster.Config{
		Ranks:    3,
		Failures: []cluster.FailureSpec{{Rank: 1, AtPragma: 2}},
		App: func(env cluster.Env) error {
			st := env.State()
			phase := st.Int("phase")
			if _, err := env.Restore(); err != nil {
				return err
			}
			w := env.World()
			switch env.Rank() {
			case 0: // receiver: checkpoint, then wildcard-receive late msgs
				if phase.Get() < 1 {
					phase.Set(1)
					if err := env.CheckpointNow(); err != nil {
						return err
					}
				}
				if phase.Get() < 2 {
					hash := int64(17)
					for i := 0; i < 4; i++ {
						var buf [1]byte
						stt, err := w.RecvBytes(buf[:], mpi.AnySource, 5)
						if err != nil {
							return err
						}
						hash = hash*31 + int64(stt.Source)*100 + int64(buf[0])
					}
					rec.add("hash", hash)
					phase.Set(2)
				}
			case 1, 2: // senders: send BEFORE checkpointing (late for rank 0)
				if phase.Get() < 1 {
					for i := 0; i < 2; i++ {
						if err := w.SendBytes([]byte{byte(10*env.Rank() + i)}, 0, 5); err != nil {
							return err
						}
					}
					phase.Set(1)
					if err := env.CheckpointNow(); err != nil {
						return err
					}
				}
			}
			if err := cluster.LayerOf(env).Sync(); err != nil {
				return err
			}
			return env.Checkpoint()
		},
	}
	res := run(t, cfg)
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d", res.Attempts)
	}
	hashes := rec.get("hash")
	if len(hashes) != 2 || hashes[0] != hashes[1] {
		t.Fatalf("late replay order diverged: %v", hashes)
	}
	if res.Stats[0].Stats.ReplayedLate != 4 {
		t.Fatalf("rank 0 replayed %d, want 4", res.Stats[0].Stats.ReplayedLate)
	}
}

// TestFigure6NonBlockingAcrossLine: an Irecv posted before the line,
// completed by a late message after it, with failed Test calls recorded and
// replayed, the early token suppressed, and the buffer reattached on
// recovery (paper Sections 4.1 and 2.3 combined).
func TestFigure6NonBlockingAcrossLine(t *testing.T) {
	rec := newRecorder()
	cfg := cluster.Config{
		Ranks:    2,
		Failures: []cluster.FailureSpec{{Rank: 1, AtPragma: 2}},
		App: func(env cluster.Env) error {
			st := env.State()
			phase := st.Int("phase")
			rid := st.Int("rid")
			buf := st.Bytes("payload")
			restored, err := env.Restore()
			if err != nil {
				return err
			}
			w := env.World()
			layer := cluster.LayerOf(env)
			switch env.Rank() {
			case 0:
				if restored && phase.Get() >= 1 && phase.Get() < 2 {
					// The Irecv crossed the line; Go cannot preserve the
					// buffer pointer, so reattach it (C3 does this via its
					// address-preserving allocator).
					scratch := make([]byte, 8)
					if err := layer.ReattachRecvBuffer(rid.Get(), scratch, 8, mpi.TypeByte); err != nil {
						return err
					}
					buf.SetData(scratch)
				}
				if phase.Get() < 1 {
					buf.SetData(make([]byte, 8))
					id, err := w.Irecv(buf.Data(), 8, mpi.TypeByte, 1, 9)
					if err != nil {
						return err
					}
					rid.Set(id)
					phase.Set(1)
					if err := env.CheckpointNow(); err != nil { // pragma 1
						return err
					}
				}
				if phase.Get() < 2 {
					// Exactly three Tests fail: rank 1 sends only after our
					// token, which we send after the Tests.
					fails := 0
					for i := 0; i < 3; i++ {
						if _, ok, err := w.Test(rid.Get()); err != nil {
							return err
						} else if !ok {
							fails++
						}
					}
					rec.add("fails", int64(fails))
					if err := w.SendBytes([]byte{1}, 1, 10); err != nil {
						return err
					}
					stt, err := w.Wait(rid.Get())
					if err != nil {
						return err
					}
					rec.add("bytes", int64(stt.Bytes))
					rec.add("first", int64(buf.Data()[0]))
					phase.Set(2)
				}
			case 1:
				if phase.Get() < 1 {
					var tok [1]byte
					if _, err := w.RecvBytes(tok[:], 0, 10); err != nil {
						return err
					}
					payload := []byte{9, 8, 7, 6, 5, 4, 3, 2}
					if err := w.SendBytes(payload, 0, 9); err != nil {
						return err
					}
					phase.Set(1)
					if err := env.CheckpointNow(); err != nil { // pragma 1
						return err
					}
				}
			}
			if err := layer.Sync(); err != nil {
				return err
			}
			return env.Checkpoint() // pragma 2: rank 1 dies on attempt 0
		},
	}
	res := run(t, cfg)
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d", res.Attempts)
	}
	fails := rec.get("fails")
	if len(fails) != 2 || fails[0] != 3 || fails[1] != 3 {
		t.Fatalf("test-failure counts %v, want [3 3]", fails)
	}
	firsts := rec.get("first")
	if len(firsts) != 2 || firsts[0] != 9 || firsts[1] != 9 {
		t.Fatalf("payload first bytes %v", firsts)
	}
	if res.Stats[0].Stats.SuppressedSends != 1 {
		t.Fatalf("rank 0 suppressed %d sends (token), want 1", res.Stats[0].Stats.SuppressedSends)
	}
}

// TestFigure7BcastAcrossLine: a broadcast whose root is pre-line while the
// receivers are post-line. Each root-to-child stream is late, gets logged,
// and replays during recovery without the root re-executing.
func TestFigure7BcastAcrossLine(t *testing.T) {
	rec := newRecorder()
	cfg := cluster.Config{
		Ranks:    4,
		Failures: []cluster.FailureSpec{{Rank: 2, AtPragma: 2}},
		App: func(env cluster.Env) error {
			st := env.State()
			phase := st.Int("phase")
			got := st.Float64("got")
			if _, err := env.Restore(); err != nil {
				return err
			}
			w := env.World()
			buf := make([]byte, 8)
			if env.Rank() == 0 {
				if phase.Get() < 1 {
					mpi.PutFloat64s(buf, []float64{3.25})
					if err := w.Bcast(buf, 1, mpi.TypeFloat64, 0); err != nil {
						return err
					}
					got.Set(3.25)
					phase.Set(1)
					if err := env.CheckpointNow(); err != nil { // pragma 1
						return err
					}
				}
			} else {
				if phase.Get() < 1 {
					phase.Set(1)
					if err := env.CheckpointNow(); err != nil { // pragma 1
						return err
					}
				}
				if phase.Get() < 2 {
					if err := w.Bcast(buf, 1, mpi.TypeFloat64, 0); err != nil {
						return err
					}
					var v [1]float64
					mpi.GetFloat64s(v[:], buf)
					got.Set(v[0])
					phase.Set(2)
				}
				rec.add(fmt.Sprintf("got%d", env.Rank()), int64(got.Get()*100))
			}
			if err := cluster.LayerOf(env).Sync(); err != nil {
				return err
			}
			return env.Checkpoint() // pragma 2: rank 2 dies on attempt 0
		},
	}
	res := run(t, cfg)
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d", res.Attempts)
	}
	for r := 1; r < 4; r++ {
		vals := rec.get(fmt.Sprintf("got%d", r))
		if len(vals) != 2 || vals[0] != 325 || vals[1] != 325 {
			t.Fatalf("rank %d broadcast values %v", r, vals)
		}
	}
}

// TestAllreduceResultLog: an Allreduce crossing a line must be logged by
// the post-line participants and replayed from the log during recovery
// (paper Section 4.3).
func TestAllreduceResultLog(t *testing.T) {
	rec := newRecorder()
	cfg := cluster.Config{
		Ranks:    4,
		Failures: []cluster.FailureSpec{{Rank: 1, AtPragma: 2}},
		App: func(env cluster.Env) error {
			st := env.State()
			phase := st.Int("phase")
			acc := st.Float64("acc")
			if _, err := env.Restore(); err != nil {
				return err
			}
			w := env.World()
			in := make([]byte, 8)
			out := make([]byte, 8)
			mpi.PutFloat64s(in, []float64{float64(env.Rank() + 1)})
			if env.Rank() == 3 {
				// Rank 3 calls the Allreduce pre-line; everyone else
				// post-line, so the call crosses the recovery line.
				if phase.Get() < 1 {
					if err := w.Allreduce(in, out, 1, mpi.TypeFloat64, mpi.OpSum); err != nil {
						return err
					}
					var v [1]float64
					mpi.GetFloat64s(v[:], out)
					acc.Set(v[0])
					phase.Set(1)
					if err := env.CheckpointNow(); err != nil { // pragma 1
						return err
					}
				}
			} else {
				if phase.Get() < 1 {
					phase.Set(1)
					if err := env.CheckpointNow(); err != nil { // pragma 1
						return err
					}
				}
				if phase.Get() < 2 {
					if err := w.Allreduce(in, out, 1, mpi.TypeFloat64, mpi.OpSum); err != nil {
						return err
					}
					var v [1]float64
					mpi.GetFloat64s(v[:], out)
					acc.Set(v[0])
					phase.Set(2)
				}
			}
			rec.add(fmt.Sprintf("acc%d", env.Rank()), int64(acc.Get()))
			if err := cluster.LayerOf(env).Sync(); err != nil {
				return err
			}
			return env.Checkpoint() // pragma 2: rank 1 dies on attempt 0
		},
	}
	res := run(t, cfg)
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d", res.Attempts)
	}
	for r := 0; r < 4; r++ {
		vals := rec.get(fmt.Sprintf("acc%d", r))
		want := int64(10) // 1+2+3+4
		for _, v := range vals {
			if v != want {
				t.Fatalf("rank %d allreduce values %v, want %d", r, vals, want)
			}
		}
	}
	replayed := uint64(0)
	logged := uint64(0)
	for _, rs := range res.Stats {
		replayed += rs.Stats.ResultsReplayed
		logged += rs.Stats.ResultsLogged
	}
	if replayed == 0 {
		t.Fatal("no allreduce results were replayed from the log")
	}
}

// TestRestartFromScratch: a failure before any checkpoint commits restarts
// the computation from the beginning.
func TestRestartFromScratch(t *testing.T) {
	rec := newRecorder()
	cfg := cluster.Config{
		Ranks:    2,
		Failures: []cluster.FailureSpec{{Rank: 0, AtPragma: 1}},
		App: func(env cluster.Env) error {
			restored, err := env.Restore()
			if err != nil {
				return err
			}
			rec.add("restored", int64(b2i(restored)))
			w := env.World()
			other := 1 - env.Rank()
			var in [1]byte
			if _, err := w.Sendrecv([]byte{byte(env.Rank())}, 1, mpi.TypeByte, other, 3,
				in[:], 1, mpi.TypeByte, other, 3); err != nil {
				return err
			}
			rec.add("xchg", int64(in[0]))
			return env.Checkpoint() // rank 0 dies here on attempt 0
		},
	}
	res := run(t, cfg)
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d", res.Attempts)
	}
	for _, v := range rec.get("restored") {
		if v != 0 {
			t.Fatal("restore should have found no committed line")
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestTwoFailures: recovery must survive a second failure after the first
// recovery, restarting again from the same (or a newer) line.
func TestTwoFailures(t *testing.T) {
	rec := newRecorder()
	cfg := cluster.Config{
		Ranks: 3,
		Failures: []cluster.FailureSpec{
			{Rank: 1, AtPragma: 2},
			{Rank: 2, AtPragma: 2},
		},
		App: func(env cluster.Env) error {
			st := env.State()
			it := st.Int("it")
			sum := st.Int("sum")
			if _, err := env.Restore(); err != nil {
				return err
			}
			w := env.World()
			for it.Get() < 4 {
				// Ring shift: send to the right, receive from the left.
				right := (env.Rank() + 1) % 3
				left := (env.Rank() + 2) % 3
				var in [1]byte
				if _, err := w.Sendrecv([]byte{byte(env.Rank() + it.Get())}, 1, mpi.TypeByte, right, 4,
					in[:], 1, mpi.TypeByte, left, 4); err != nil {
					return err
				}
				sum.Add(int(in[0]))
				it.Add(1)
				if err := env.CheckpointNow(); err != nil { // pragmas 1..4
					return err
				}
			}
			rec.add(fmt.Sprintf("sum%d", env.Rank()), int64(sum.Get()))
			return cluster.LayerOf(env).Sync()
		},
	}
	res := run(t, cfg)
	if res.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", res.Attempts)
	}
	// Failure-free expectation: sum over it of (left + it).
	for r := 0; r < 3; r++ {
		left := (r + 2) % 3
		want := int64(0)
		for it := 0; it < 4; it++ {
			want += int64(left + it)
		}
		vals := rec.get(fmt.Sprintf("sum%d", r))
		if len(vals) == 0 || vals[len(vals)-1] != want {
			t.Fatalf("rank %d sums %v, want final %d", r, vals, want)
		}
	}
}

// TestCommSplitAndTypeRestoredAcrossFailure: communicators and datatypes
// created before the line must be rebuilt on recovery from their recorded
// recipes (paper Sections 4.2 and 4.4).
func TestCommSplitAndTypeRestoredAcrossFailure(t *testing.T) {
	rec := newRecorder()
	cfg := cluster.Config{
		Ranks:    4,
		Failures: []cluster.FailureSpec{{Rank: 3, AtPragma: 2}},
		App: func(env cluster.Env) error {
			st := env.State()
			phase := st.Int("phase")
			commH := st.Int("commH")
			typeH := st.Int("typeH")
			if _, err := env.Restore(); err != nil {
				return err
			}
			layer := cluster.LayerOf(env)
			w := env.World().(*ckpt.WComm)
			if phase.Get() < 1 {
				// Mid-run creations, before the first line.
				sub, err := w.Split(env.Rank()%2, env.Rank())
				if err != nil {
					return err
				}
				commH.Set(sub.Handle())
				th, err := layer.TypeVector(2, 1, 2, ckpt.HandleFloat64)
				if err != nil {
					return err
				}
				typeH.Set(th)
				phase.Set(1)
				if err := env.CheckpointNow(); err != nil { // pragma 1
					return err
				}
			}
			if phase.Get() < 2 {
				// Post-line: use the handles (restored from recipes after a
				// failure, since the creation code is skipped on re-run).
				sub, err := layer.CommByHandle(commH.Get())
				if err != nil {
					return err
				}
				dt, err := layer.Type(typeH.Get())
				if err != nil {
					return err
				}
				buf := make([]byte, dt.Extent())
				if sub.Rank() == 0 {
					mpi.PutFloat64s(buf[:8], []float64{1})
					mpi.PutFloat64s(buf[16:24], []float64{2})
				}
				if err := sub.Bcast(buf, 1, dt, 0); err != nil {
					return err
				}
				var v [1]float64
				mpi.GetFloat64s(v[:], buf[16:24])
				rec.add(fmt.Sprintf("v%d", env.Rank()), int64(v[0]))
				phase.Set(2)
			}
			if err := layer.Sync(); err != nil {
				return err
			}
			return env.Checkpoint() // pragma 2: rank 3 dies on attempt 0
		},
	}
	res := run(t, cfg)
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d", res.Attempts)
	}
	for r := 0; r < 4; r++ {
		vals := rec.get(fmt.Sprintf("v%d", r))
		if len(vals) == 0 {
			t.Fatalf("rank %d has no values", r)
		}
		for _, v := range vals {
			if v != 2 {
				t.Fatalf("rank %d strided bcast values %v, want 2s", r, vals)
			}
		}
	}
}
