package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"c3/internal/apps"
	"c3/internal/ckpt"
	"c3/internal/cluster"
	"c3/internal/stable"
)

// app-ckpt-disk: paper Tables 4/6, Configuration #3, made long enough to
// repeat. Two ranks run CG through the protocol layer with a checkpoint at
// every pragma into a stable.DiskStore; then the world is restarted from
// the last line (ForceRestore). No codec, no network: the bypass workload
// for codec and TCP changes.
//
//	op  = application time blocked per checkpoint, per line per rank
//	      (ckpt.Stats StartDuration+CommitDuration, sampled at each pragma)
//	alt = ckpt.Stats RestoreDuration, per restart per rank
type diskInst struct {
	kernel *apps.Kernel
	params apps.Params
	dir    string
	disk   *stable.DiskStore
	ref    [2]float64
}

func setupAppDisk(seed int64, sz sizes) (instance, error) {
	k, ok := apps.Lookup("CG")
	if !ok {
		return nil, fmt.Errorf("app-ckpt-disk: CG kernel not registered")
	}
	dir, err := os.MkdirTemp("", "c3bench-disk-")
	if err != nil {
		return nil, err
	}
	disk, err := stable.NewDiskStore(dir)
	if err != nil {
		_ = os.RemoveAll(dir) // best effort: the store error is the one to report
		return nil, err
	}
	c := &diskInst{kernel: k, params: apps.Params{Class: apps.ClassS, N: sz.diskN, Iters: sz.diskIters}, dir: dir, disk: disk}
	out := apps.NewOutput()
	if _, err := cluster.Run(cluster.Config{Ranks: cgRanks, App: k.App(c.params, out), Direct: true}); err != nil {
		c.close()
		return nil, fmt.Errorf("app-ckpt-disk: reference run: %w", err)
	}
	for r := 0; r < cgRanks; r++ {
		c.ref[r], _ = out.Checksum(r)
	}
	warm := newPass()
	c.checkpointRun(nil, warm)
	c.restart(nil, warm)
	if warm.failed > 0 {
		c.close()
		return nil, fmt.Errorf("app-ckpt-disk: warm-up: %s", warm.failures[0])
	}
	return c, nil
}

// pragmaProbe samples the layer's blocked-time counters at every pragma:
// the difference between two samples is what one line cost this rank.
type pragmaProbe struct {
	cluster.Env
	layer *ckpt.Layer
	p     *pass
	taken uint64
	spent time.Duration
}

func (e *pragmaProbe) Checkpoint() error {
	err := e.Env.Checkpoint()
	st := e.layer.Stats()
	if st.CheckpointsTaken > e.taken {
		spent := st.StartDuration + st.CommitDuration
		e.p.addOp(float64((spent - e.spent).Nanoseconds()) / 1e6)
		e.taken, e.spent = st.CheckpointsTaken, spent
	}
	return err
}

func (c *diskInst) verify(p *pass, what string, out *apps.Output) {
	for r := 0; r < cgRanks; r++ {
		if sum, _ := out.Checksum(r); sum != c.ref[r] {
			p.mismatch("app-ckpt-disk: %s: rank %d checksum %v differs from the failure-free %v", what, r, sum, c.ref[r])
		}
	}
}

// checkpointRun runs CG from scratch with a checkpoint at every pragma.
func (c *diskInst) checkpointRun(tr *tracer, p *pass) {
	var store stable.Store = c.disk
	if tr != nil {
		store = &timedStore{Store: c.disk, tr: tr}
	}
	out := apps.NewOutput()
	app := c.kernel.App(c.params, out)
	p.attempt(cgRanks * c.params.Iters)
	res, err := cluster.Run(cluster.Config{
		Ranks:  cgRanks,
		Store:  store,
		Policy: ckpt.Policy{EveryNthPragma: 1},
		App: func(env cluster.Env) error {
			layer := cluster.LayerOf(env)
			if err := app(&pragmaProbe{Env: env, layer: layer, p: p}); err != nil {
				return err
			}
			// The commit fence: the last line is committed on every rank
			// before the world goes away, so restarts resume from it.
			return layer.Sync()
		},
	})
	if err != nil {
		p.fail("app-ckpt-disk: checkpointing run: %v", err)
		return
	}
	c.verify(p, "checkpointing run", out)
	var start, commit time.Duration
	for _, rs := range res.Stats {
		st := rs.Stats
		if int(st.CheckpointsTaken) != c.params.Iters {
			p.mismatch("app-ckpt-disk: rank %d took %d checkpoints, want %d", rs.Rank, st.CheckpointsTaken, c.params.Iters)
		}
		p.layer["_lines"] += float64(st.CheckpointsTaken)
		p.layer["_ckpt_bytes"] += float64(st.CheckpointBytes)
		p.layer["_stored_bytes"] += float64(st.StoredBytes)
		p.layer["_control_msgs"] += float64(st.ControlMessages)
		p.layer["_late_logged"] += float64(st.LateLogged)
		p.layer["_sends"] += float64(st.Sends)
		p.layer["_piggyback_bytes"] += float64(st.PiggybackBytes)
		start += st.StartDuration
		commit += st.CommitDuration
	}
	p.layer["_start_ms"] += float64(start.Nanoseconds()) / 1e6
	p.layer["_commit_ms"] += float64(commit.Nanoseconds()) / 1e6
}

// restart relaunches the world in restore mode from the last line the
// previous checkpointing run left in the store. The policy is off: the
// restarted run only restores and finishes.
func (c *diskInst) restart(tr *tracer, p *pass) {
	var store stable.Store = c.disk
	if tr != nil {
		store = &timedStore{Store: c.disk, tr: tr}
	}
	out := apps.NewOutput()
	p.attempt(cgRanks)
	res, err := cluster.Run(cluster.Config{Ranks: cgRanks, Store: store, App: c.kernel.App(c.params, out), ForceRestore: true})
	if err != nil {
		p.fail("app-ckpt-disk: restart: %v", err)
		return
	}
	c.verify(p, "restart", out)
	for _, rs := range res.Stats {
		if rs.Stats.Restores != 1 {
			p.mismatch("app-ckpt-disk: restart: rank %d restored %d times, want 1", rs.Rank, rs.Stats.Restores)
			continue
		}
		p.addAlt(float64(rs.Stats.RestoreDuration.Nanoseconds()) / 1e6)
	}
}

// diskBytes is the size of everything under dir.
func diskBytes(dir string) (total int64) {
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil // a file retired mid-walk is simply not counted
	})
	return total
}

func (c *diskInst) run(d time.Duration, tr *tracer, p *pass) {
	// Each slice is one checkpointing run followed by restarts from its last
	// line, so a run has both at every length.
	deadline := time.Now().Add(d)
	for slice := 0; slice < 2 || time.Now().Before(deadline); slice++ {
		c.checkpointRun(tr, p)
		if p.layer["disk.bytes_per_ckpt_byte"] == 0 {
			// What one line occupies on disk: the newest version of each rank
			// (older ones are retired as lines commit).
			var newest int64
			for r := 0; r < cgRanks; r++ {
				if v, ok, _ := c.disk.LastCommitted(r); ok {
					newest += diskBytes(filepath.Join(c.dir, fmt.Sprintf("rank%04d", r), fmt.Sprintf("v%08d", v)))
				}
			}
			p.layer["disk.bytes_per_ckpt_byte"] = ratio(float64(newest), p.layer["_ckpt_bytes"]/p.layer["_lines"]*cgRanks)
		}
		for i := 0; i < 3; i++ {
			c.restart(tr, p)
		}
		if p.failed > 0 {
			break
		}
	}
	lines := p.layer["_lines"]
	p.layer["stored_ratio"] = ratio(p.layer["_stored_bytes"], p.layer["_ckpt_bytes"])
	p.layer["ckpt_MBps"] = ratio(p.layer["_ckpt_bytes"]/lines/1e6, median(p.op)/1e3)
	p.layer["ckpt.control_msgs_per_line"] = ratio(p.layer["_control_msgs"], lines)
	p.layer["ckpt.late_logged_per_line"] = ratio(p.layer["_late_logged"], lines)
	p.layer["ckpt.piggyback_bytes_per_msg"] = ratio(p.layer["_piggyback_bytes"], p.layer["_sends"])
	p.layer["ckpt.start_share"] = ratio(p.layer["_start_ms"], p.layer["_start_ms"]+p.layer["_commit_ms"])
}

func (c *diskInst) close() {
	_ = os.RemoveAll(c.dir) // scratch data under the temp dir; nothing depends on its removal
}

// timedStore decorates a stable.Store with a span around every call the
// protocol layer makes into it. The time between Begin returning and the
// first section arriving is the layer serializing the application state
// (statesave.Registry.Save), so it is booked as "serialize"; during a
// restore, the time between one store call and the next is the layer
// loading what it just read, booked as "deserialize".
type timedStore struct {
	stable.Store
	tr *tracer
}

func (s *timedStore) Begin(rank, version int) (stable.Checkpoint, error) {
	id := s.tr.nextCycle()
	sp := s.tr.begin("op", "store_write", -1, id)
	ck, err := s.Store.Begin(rank, version)
	s.tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &timedCkpt{Checkpoint: ck, tr: s.tr, id: id, idle: time.Now(), first: true}, nil
}

type timedCkpt struct {
	stable.Checkpoint
	tr    *tracer
	id    int
	idle  time.Time // when the previous store call returned
	first bool
}

func (c *timedCkpt) WriteSection(name string, data []byte) error {
	if c.first {
		c.first = false
		c.tr.add("op", "serialize", c.idle, time.Now(), -1, c.id)
	}
	sp := c.tr.begin("op", "store_write", -1, c.id)
	err := c.Checkpoint.WriteSection(name, data)
	c.tr.end(sp)
	return err
}

func (c *timedCkpt) Commit() error {
	sp := c.tr.begin("op", "store_commit", -1, c.id)
	err := c.Checkpoint.Commit()
	c.tr.end(sp)
	return err
}

func (s *timedStore) Open(rank, version int) (stable.Snapshot, error) {
	id := s.tr.nextCycle()
	sp := s.tr.begin("alt", "open", -1, id)
	snap, err := s.Store.Open(rank, version)
	s.tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &timedSnap{Snapshot: snap, tr: s.tr, id: id}, nil
}

type timedSnap struct {
	stable.Snapshot
	tr   *tracer
	id   int
	idle time.Time
}

func (s *timedSnap) ReadSection(name string) ([]byte, error) {
	if !s.idle.IsZero() {
		s.tr.add("alt", "deserialize", s.idle, time.Now(), -1, s.id)
	}
	sp := s.tr.begin("alt", "read", -1, s.id)
	data, err := s.Snapshot.ReadSection(name)
	s.tr.end(sp)
	s.idle = time.Now()
	return data, err
}
