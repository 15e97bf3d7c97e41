package main

import (
	"fmt"
	"math/rand"
	"time"

	"c3/internal/stable"
	"c3/internal/statesave"
	"c3/internal/transport/tcp"
)

// ckpt-rs-tcp: the real diskless commit and restore path, bulk-dominated.
// rsNodes stable.DistStore nodes, each on its own tcp.Mesh over loopback,
// Reed-Solomon k=4,m=2. One closed-loop client round-robins the owners;
// the stores and meshes are passive servers of that one client.
//
//	op  = one checkpoint: Registry.Save -> Begin/WriteSection -> Commit
//	alt = one restore on the owner: Open -> ReadSection -> Registry.Load
//	      (rs keeps no local copy, so Open reassembles over the wire)
const (
	rsData, rsParity = 4, 2
	rsSections       = 8
)

type rsInst struct {
	sz      sizes
	codec   stable.Codec
	meshes  []*tcp.Mesh
	stores  []*stable.DistStore
	state   *statesave.Registry // the client's application state
	arrays  [][]float64
	restore *statesave.Registry // what restores load into
	rarrays [][]float64
	rng     *rand.Rand
	version []int // per owner
	cycle   int
}

func newState(floats int) (*statesave.Registry, [][]float64) {
	reg := statesave.NewRegistry()
	arrays := make([][]float64, rsSections)
	for i := range arrays {
		arrays[i] = reg.Float64s(fmt.Sprintf("a%d", i), floats/rsSections).Data()
	}
	return reg, arrays
}

func setupCkptRS(seed int64, sz sizes) (instance, error) {
	codec, err := stable.NewCodec("rs", rsData, rsParity)
	if err != nil {
		return nil, err
	}
	n := sz.rsNodes
	meshes, err := newMeshes(n)
	if err != nil {
		return nil, err
	}
	c := &rsInst{sz: sz, codec: codec, meshes: meshes, version: make([]int, n),
		rng: rand.New(rand.NewSource(int64(splitmix64(seed, 2))))}
	for r, m := range meshes {
		c.stores = append(c.stores, stable.NewDistStore(r, n, m, stable.WithDistCodec(codec)))
	}
	c.state, c.arrays = newState(sz.rsFloats)
	c.restore, c.rarrays = newState(sz.rsFloats)
	for _, a := range c.arrays {
		for i := range a {
			a[i] = c.rng.NormFloat64()
		}
	}
	// Warm-up: one checkpoint per owner opens every owner->holder
	// connection; one restore warms the query path.
	warm := newPass()
	for i := 0; i < n; i++ {
		c.checkpoint(nil, warm, i == n-1)
	}
	if warm.failed > 0 {
		c.close()
		return nil, fmt.Errorf("ckpt-rs-tcp: warm-up: %s", warm.failures[0])
	}
	return c, nil
}

// checkpoint runs one cycle on the next owner: commit a line, retire the
// owner's previous one, optionally restore the line just committed, then
// advance the application state.
func (c *rsInst) checkpoint(tr *tracer, p *pass, restore bool) {
	owner := c.cycle % len(c.stores)
	store := c.stores[owner]
	c.version[owner]++
	version := c.version[owner]
	id := tr.nextCycle()
	c.cycle++

	p.attempt(1)
	root := tr.begin("op", "checkpoint", -1, id)
	begin := time.Now()
	sp := tr.begin("op", "serialize", root, id)
	img := c.state.Save()
	tr.end(sp)
	sp = tr.begin("op", "store_write", root, id)
	ck, err := store.Begin(owner, version)
	if err == nil {
		err = ck.WriteSection("app", img)
	}
	tr.end(sp)
	var commitStart time.Time
	if err == nil {
		sp = tr.begin("op", "ship_ack", root, id)
		commitStart = time.Now()
		err = ck.Commit()
		tr.end(sp)
	}
	d := time.Since(begin)
	tr.end(root)
	if err != nil {
		p.fail("ckpt-rs-tcp: commit (%d,%d): %v", owner, version, err)
		p.layer["dist.commit_errors"]++
		return
	}
	p.addOp(float64(d.Nanoseconds()) / 1e6)
	p.layer["_ckpt_bytes"] += float64(len(img))
	if ss, ok := ck.(stable.StoredSizer); ok {
		p.layer["_stored_bytes"] += float64(ss.StoredSize())
	}
	if tr != nil {
		// Commit cannot be opened up from outside: replay the codec on the
		// same bytes and book that time as the commit's encode child, so the
		// commit span's self time is shipping plus the acknowledgment wait.
		t0 := time.Now()
		_, _ = c.codec.Encode(img) // replay for timing only; the commit above already encoded successfully
		tr.add("op", "encode", commitStart, commitStart.Add(time.Since(t0)), sp, id)
	}
	if err := store.Retire(owner, version); err != nil {
		p.fail("ckpt-rs-tcp: retire (%d,%d): %v", owner, version, err)
	}

	if restore {
		p.attempt(1)
		root := tr.begin("alt", "restore", -1, id)
		begin := time.Now()
		sp := tr.begin("alt", "open", root, id)
		snap, err := store.Open(owner, version)
		tr.end(sp)
		var data []byte
		if err == nil {
			sp = tr.begin("alt", "read", root, id)
			data, err = snap.ReadSection("app")
			tr.end(sp)
		}
		if err == nil {
			sp = tr.begin("alt", "deserialize", root, id)
			err = c.restore.Load(data)
			tr.end(sp)
		}
		d := time.Since(begin)
		tr.end(root)
		switch {
		case err != nil:
			p.fail("ckpt-rs-tcp: restore (%d,%d): %v", owner, version, err)
		case stable.SectionSum(data) != stable.SectionSum(img) || !sameFloats(c.arrays, c.rarrays):
			p.mismatch("ckpt-rs-tcp: restored state (%d,%d) differs from the committed state", owner, version)
		default:
			p.addAlt(float64(d.Nanoseconds()) / 1e6)
		}
		if snap != nil {
			_ = snap.Close() // in-memory snapshot: Close cannot fail
		}
	}

	// The application computes: every line differs from the previous one.
	for _, a := range c.arrays {
		for k := 0; k < 16; k++ {
			a[c.rng.Intn(len(a))] = c.rng.NormFloat64()
		}
	}
}

func sameFloats(a, b [][]float64) bool {
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return false
			}
		}
	}
	return true
}

func (c *rsInst) counters() (wire, reasm int64) {
	for _, s := range c.stores {
		wire += s.ReplicatedBytes()
		reasm += s.Reassemblies()
	}
	return wire, reasm
}

func (c *rsInst) run(d time.Duration, tr *tracer, p *pass) {
	wire0, reasm0 := c.counters()
	deadline := time.Now().Add(d)
	for i := 0; i < 2*c.sz.rsRestoreEvery || time.Now().Before(deadline); i++ {
		c.checkpoint(tr, p, i%c.sz.rsRestoreEvery == c.sz.rsRestoreEvery-1)
	}
	wire1, reasm1 := c.counters()
	p.layer["_wire_bytes"] += float64(wire1 - wire0)
	p.layer["dist.wire_bytes_per_ckpt_byte"] = ratio(p.layer["_wire_bytes"], p.layer["_ckpt_bytes"])
	p.layer["dist.reassemblies"] += float64(reasm1 - reasm0)
	p.layer["stored_ratio"] = ratio(p.layer["_stored_bytes"], p.layer["_ckpt_bytes"])
	p.layer["ckpt_MBps"] = ratio(p.layer["_ckpt_bytes"]/float64(len(p.op))/1e6, median(p.op)/1e3)
}

func (c *rsInst) close() {
	for _, s := range c.stores {
		s.Close()
	}
	for _, m := range c.meshes {
		m.Close()
	}
}
