package main

import (
	"fmt"
	"time"

	"c3/internal/apps"
	"c3/internal/cluster"
)

// cg-nockpt: paper Tables 2/3, the price every message pays. Two ranks run
// CG over the in-memory interconnect, alternating the Direct ("Original")
// and the instrumented configuration; the policy never fires, so no
// checkpoint is taken and statesave, stable, tcp and detect do no work.
//
//	op  = one instrumented run
//	alt = one direct run
type cgInst struct {
	kernel *apps.Kernel
	params apps.Params
	ref    [2]float64 // failure-free reference checksums, from a direct run
	first  bool       // whether the first pair starts with the direct run
}

const cgRanks = 2

func setupCG(seed int64, sz sizes) (instance, error) {
	k, ok := apps.Lookup("CG")
	if !ok {
		return nil, fmt.Errorf("cg-nockpt: CG kernel not registered")
	}
	c := &cgInst{kernel: k, params: apps.Params{Class: apps.ClassS, N: sz.cgN, Iters: sz.cgIters},
		first: splitmix64(seed, 0)&1 == 0}
	// Warm-up pair; the direct run's checksums are the reference.
	_, sums, _, err := c.runOnce(true)
	if err != nil {
		return nil, fmt.Errorf("cg-nockpt: reference run: %w", err)
	}
	c.ref = sums
	if _, sums, _, err = c.runOnce(false); err != nil {
		return nil, fmt.Errorf("cg-nockpt: warm-up run: %w", err)
	} else if sums != c.ref {
		return nil, fmt.Errorf("cg-nockpt: instrumented checksums %v differ from direct %v", sums, c.ref)
	}
	return c, nil
}

func (c *cgInst) runOnce(direct bool) (ms float64, sums [2]float64, res *cluster.Result, err error) {
	out := apps.NewOutput()
	res, err = cluster.Run(cluster.Config{Ranks: cgRanks, App: c.kernel.App(c.params, out), Direct: direct})
	if err != nil {
		return 0, sums, nil, err
	}
	for r := 0; r < cgRanks; r++ {
		sums[r], _ = out.Checksum(r)
	}
	return float64(res.LastAttemptElapsed.Nanoseconds()) / 1e6, sums, res, nil
}

func (c *cgInst) run(d time.Duration, tr *tracer, p *pass) {
	deadline := time.Now().Add(d)
	for pair := 0; pair < 2 || time.Now().Before(deadline); pair++ {
		directFirst := c.first != (pair%2 == 1) // alternate which side runs first
		for i := 0; i < 2; i++ {
			direct := (i == 0) == directFirst
			kind := "op"
			if direct {
				kind = "alt"
			}
			p.attempt(1)
			sp := tr.begin(kind, "run", -1, tr.nextCycle())
			ms, sums, res, err := c.runOnce(direct)
			tr.end(sp)
			switch {
			case err != nil:
				p.fail("cg-nockpt: run (direct=%v): %v", direct, err)
				continue
			case sums != c.ref:
				p.mismatch("cg-nockpt: checksums %v differ from reference %v (direct=%v)", sums, c.ref, direct)
			}
			if direct {
				p.addAlt(ms)
				continue
			}
			p.addOp(ms)
			for _, rs := range res.Stats {
				p.layer["_sends"] += float64(rs.Stats.Sends)
				p.layer["_piggyback_bytes"] += float64(rs.Stats.PiggybackBytes)
				if rs.Stats.CheckpointsTaken != 0 {
					p.mismatch("cg-nockpt: rank %d took %d checkpoints; the workload takes none", rs.Rank, rs.Stats.CheckpointsTaken)
				}
			}
		}
	}
	p.layer["ckpt.piggyback_bytes_per_msg"] = ratio(p.layer["_piggyback_bytes"], p.layer["_sends"])
	op, alt := median(p.op), median(p.alt)
	p.layer["overhead_ratio"] = ratio(op, alt)
	// From outside, the only separable layer is the protocol's: what the
	// instrumented run costs beyond the direct one (application + mpi).
	p.layer["share.protocol"] = ratio(op-alt, op)
	p.layer["share.app"] = ratio(alt, op)
}

func (c *cgInst) close() {}
