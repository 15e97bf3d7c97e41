package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"c3/internal/transport/tcp"
)

// pass collects what one measured pass of a workload produced.
type pass struct {
	mu sync.Mutex
	// op and alt are the per-operation times (ms) of the workload's primary
	// and secondary closed-loop operation (see README: which is which).
	op, alt []float64
	// attempted and failed count operations; failures holds one line per
	// failed operation for the report. wrong is set once an operation
	// completed with an output that failed verification.
	attempted, failed int
	failures          []string
	wrong             bool
	// layer holds the workload-derived per-layer values: exact counts and
	// ratios measured at the layer boundaries during this pass.
	layer map[string]float64
}

func newPass() *pass { return &pass{layer: make(map[string]float64)} }

func (p *pass) attempt(n int) {
	p.mu.Lock()
	p.attempted += n
	p.mu.Unlock()
}

// fail counts one operation that did not complete: an error, a timeout, a
// suspicion of a live rank. Failures are never retried or dropped: they are
// counted in the result's "failed" and printed.
func (p *pass) fail(format string, args ...any) {
	p.mu.Lock()
	p.failed++
	if len(p.failures) < 20 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
	p.mu.Unlock()
}

// mismatch counts one operation whose output failed verification (a
// checksum off the failure-free reference, restored bytes that differ from
// the committed ones). It is a failure that additionally makes the result
// incorrect and the command exit non-zero.
func (p *pass) mismatch(format string, args ...any) {
	p.fail(format, args...)
	p.mu.Lock()
	p.wrong = true
	p.mu.Unlock()
}

func (p *pass) addOp(ms float64) {
	p.mu.Lock()
	p.op = append(p.op, ms)
	p.mu.Unlock()
}

func (p *pass) addAlt(ms float64) {
	p.mu.Lock()
	p.alt = append(p.alt, ms)
	p.mu.Unlock()
}

// instance is one set-up workload, ready to be measured.
type instance interface {
	// run drives the workload's closed loop for about d and records into p.
	// With a non-nil tracer it additionally records a span around every
	// call into a layer.
	run(d time.Duration, tr *tracer, p *pass)
	close()
}

// sizes are the workload size parameters. full() is what BENCHMARK.json
// states; tiny() keeps the smoke test under a few seconds.
type sizes struct {
	cgN, cgIters       int // cg-nockpt
	pingBatch, streamN int // smallmsg-tcp: RTTs and windows per phase slice
	rsNodes            int // ckpt-rs-tcp world
	rsFloats           int // ckpt-rs-tcp float64s per checkpoint
	rsRestoreEvery     int
	diskN, diskIters   int // app-ckpt-disk
	killN, killIters   int // sigkill-recover
	killEvery          int
	probeBytes         int // layer probes: bulk buffer size
	probeDur           time.Duration
}

func full() sizes {
	return sizes{
		cgN: 4096, cgIters: 10000,
		pingBatch: 500, streamN: 50,
		rsNodes: 8, rsFloats: 1 << 20, rsRestoreEvery: 4,
		diskN: 524288, diskIters: 10,
		killN: 4096, killIters: 300, killEvery: 25,
		probeBytes: 1 << 20, probeDur: 150 * time.Millisecond,
	}
}

func tiny() sizes {
	return sizes{
		cgN: 1024, cgIters: 200,
		pingBatch: 50, streamN: 5,
		rsNodes: 8, rsFloats: 1 << 14, rsRestoreEvery: 2,
		diskN: 8192, diskIters: 4,
		killN: 4096, killIters: 300, killEvery: 25,
		probeBytes: 1 << 16, probeDur: 10 * time.Millisecond,
	}
}

// workload is one entry of the benchmark's workload table.
type workload struct {
	name string
	// setup builds one instance: spawn or bring-up, input generation from
	// the seed, and a warm-up cycle that also records the failure-free
	// reference outputs.
	setup func(seed int64, sz sizes) (instance, error)
	// setups is how many instances a run sets up and measures in turn.
	setups int
	// typical is the quantile the operation times are reported by: the
	// median, except on sigkill-recover, whose recoveries fall into two
	// modes (see README) and are reported by their lower quartile.
	typical float64
}

// workloads, in the order the all-workloads mode runs them.
var workloads = []workload{
	{"cg-nockpt", setupCG, 3, 0.5},
	{"smallmsg-tcp", setupSmallMsg, 3, 0.5},
	{"ckpt-rs-tcp", setupCkptRS, 3, 0.5},
	{"app-ckpt-disk", setupAppDisk, 3, 0.5},
	// A failure-free launch takes 0.5, 0.75 or 1.0 s (see README): a steady
	// setup_s needs the mean of more of them, each followed by one cycle.
	{"sigkill-recover", setupSigkill, 12, 0.25},
}

// newMeshes brings up n tcp meshes over loopback, one per rank. A port can
// be taken between freeAddrs releasing it and the mesh binding it; the
// whole set is then allocated afresh.
func newMeshes(n int) (meshes []*tcp.Mesh, err error) {
	for try := 0; try < 3; try++ {
		var addrs []string
		if addrs, err = freeAddrs(n); err != nil {
			return nil, err
		}
		meshes = meshes[:0]
		for r := 0; r < n && err == nil; r++ {
			var m *tcp.Mesh
			if m, err = tcp.New(r, addrs); err == nil {
				meshes = append(meshes, m)
			}
		}
		if err == nil {
			return meshes, nil
		}
		for _, m := range meshes {
			m.Close()
		}
	}
	return nil, err
}

// freeAddrs reserves k distinct loopback TCP addresses by binding and
// releasing ephemeral ports (the launcher's idiom).
func freeAddrs(k int) ([]string, error) {
	addrs := make([]string, 0, k)
	for i := 0; i < k; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, ln.Addr().String())
		_ = ln.Close() // probe listener: the address is all we wanted
	}
	return addrs, nil
}
