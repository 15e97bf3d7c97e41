package bench

// The scale table is the two-level topology's measurement artifact: it
// runs real-time failure detectors (no virtual clock — actual goroutines,
// actual heartbeats) over the in-memory interconnect at increasing world
// sizes, kills one rank, and reports the heartbeat cadence the topology
// can sustain, the steady-state message load, and the kill-to-agreement
// latency for the flat and the grouped topology side by side.
//
// The comparison hinges on scaleHeartbeat: a host can only deliver so many
// detector messages per second, so each configuration heartbeats as fast
// as its aggregate fan-out allows. The flat detector is all-pairs in both
// lease pings and post-kill suspicion gossip — its fan-out is n-1, so its
// heartbeat interval (and with it the detection latency) grows
// quadratically with the world. The grouped detector's fan-out is the
// group width, so its cadence — and detection latency — stays nearly flat
// out to a thousand ranks. Flat rows additionally stop at flatScaleCap:
// past that size the flat post-kill gossip storm is a burst no cadence
// choice absorbs.

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"c3/internal/detect"
	"c3/internal/transport"
)

// flatScaleCap is the largest world the flat detector is swept to: the
// post-kill suspicion gossip is an O(n^2) burst (every live rank gossips
// every suspicion to every other rank), and past roughly a hundred ranks
// the burst outruns real-time consumers regardless of heartbeat cadence.
const flatScaleCap = 96

// Scale builds the flat-vs-grouped detector scaling table. The size sweep
// comes from opts.Ranks when set (sizes below 4 are raised to 4 — a
// smaller world cannot hold a quorum after the kill); the default sweep
// reaches the thousand-rank regime.
func Scale(opts Options) (*Table, error) {
	t := &Table{
		Title:   "Scale: flat vs two-level failure detection (real-time detectors, one rank killed)",
		Columns: []string{"Ranks", "Topology", "Groups", "Heartbeat (ms)", "Steady msgs/s/rank", "Detect+agree (ms)", "Recovery msgs"},
	}
	sizes := opts.Ranks
	if len(sizes) == 0 {
		sizes = []int{32, 64, 96, 256, 1024}
	}
	for _, n := range sizes {
		if n < 4 {
			n = 4
		}
		if n <= flatScaleCap {
			fmt.Fprintf(os.Stderr, "scale: %d ranks, flat...\n", n)
			row, err := scaleRow(n, 0)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, row)
		}
		if g := scaleGroupSize(n); g > 0 {
			fmt.Fprintf(os.Stderr, "scale: %d ranks, grouped/%d...\n", n, g)
			row, err := scaleRow(n, g)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		"Each configuration heartbeats as fast as its fan-out allows (fixed per-host message budget): flat fan-out is n-1 so its cadence and detection latency degrade quadratically; grouped fan-out is the group width so both stay nearly constant.",
		fmt.Sprintf("Flat rows stop at %d ranks: the flat post-kill suspicion gossip is an O(n^2) burst that outruns real-time consumers past ~100 ranks at any cadence.", flatScaleCap))
	return t, nil
}

// scaleGroupSize picks the group width for an n-rank grouped run: 16-wide
// groups up to 256 ranks, 32-wide beyond (the 1024-rank acceptance
// geometry). Worlds too small to hold two groups skip the grouped row.
func scaleGroupSize(n int) int {
	switch {
	case n >= 512:
		return 32
	case n >= 32:
		return 16
	default:
		return 0
	}
}

// scaleHeartbeat picks the fastest heartbeat interval a configuration can
// sustain on one host. The detector's send rate is ~0.3 messages per peer
// per heartbeat interval (lease pings amortized over the lease window), so
// aggregate load is ~0.3*n*fanout/hb; the budget of 25k msgs/s keeps a
// single CPU's steady state near half its delivery capacity, leaving
// headroom for the post-kill suspicion/agreement burst. The floor of 25ms
// is the cadence the self-healing deployment mode uses.
func scaleHeartbeat(n, groupSize int) time.Duration {
	fanout := n - 1
	if groupSize > 1 {
		fanout = groupSize
	}
	hb := time.Duration(0.3 * float64(n) * float64(fanout) / 25000 * float64(time.Second))
	// Past ~500 ranks the binding constraint stops being message
	// throughput: a 1024-rank world runs thousands of detector goroutines,
	// and on a small host the scheduling tail latency of a delayed tick eats into the lease
	// window — false suspicions, then a gossip storm. Doubling the
	// interval doubles every real-time window relative to that fixed tail.
	if n >= 512 {
		hb *= 2
	}
	if hb < 25*time.Millisecond {
		hb = 25 * time.Millisecond
	}
	return hb.Round(time.Millisecond)
}

// scaleRow runs one configuration, retrying on convergence failure: these
// are real-time worlds on whatever host runs the bench, and a rare
// starvation burst (GC pause, scheduler tail) can tip a world into a
// suspicion storm it never exits. A retry boots a completely fresh world;
// a configuration that fails every attempt is reported as the finding it
// is.
func scaleRow(n, groupSize int) ([]string, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var row []string
		row, err = scaleRun(n, groupSize)
		if err == nil {
			return row, nil
		}
		fmt.Fprintf(os.Stderr, "scale: %v (retrying with a fresh world)\n", err)
	}
	return nil, err
}

// scaleRun boots one real-time detector world of n ranks (groupSize 0:
// flat), measures the steady-state message rate over a settle-then-sample
// window, kills one interior rank, and waits until every survivor has
// committed an epoch declaring it dead.
func scaleRun(n, groupSize int) ([]string, error) {
	// Sweep hygiene: the previous row's world (its message buffers and
	// arrival windows) is garbage now, but with gigabytes of it still on
	// the heap the GC's pacer schedules marking cycles big enough to
	// starve this row's real-time detectors on a small host — false
	// suspicions, then a gossip storm. Collect and return the memory
	// before booting the next world so every row starts from the same
	// heap floor a standalone run would see.
	runtime.GC()
	debug.FreeOSMemory()
	hb := scaleHeartbeat(n, groupSize)
	window := time.Second
	if window < 10*hb {
		window = 10 * hb
	}
	nw := transport.NewNetwork(n)
	dets := make([]*detect.Detector, n)
	abandoned := false
	defer func() {
		if abandoned {
			return // Close would block on the same wedged mutexes
		}
		for _, d := range dets {
			if d != nil {
				d.Close()
			}
		}
	}()
	for r := 0; r < n; r++ {
		d, err := detect.New(detect.Options{
			Self: r, Ranks: n, Net: nw,
			HeartbeatInterval: hb,
			GroupSize:         groupSize,
		})
		if err != nil {
			return nil, err
		}
		dets[r] = d
	}
	for _, d := range dets {
		d.Start()
	}

	time.Sleep(20 * hb) // settle: past the start-up dials and two lease horizons
	before := nw.Stats()
	time.Sleep(window)
	after := nw.Stats()
	steady := float64(after.MessagesSent-before.MessagesSent) / window.Seconds() / float64(n)

	// Kill an interior rank (n/2+1 is never a group's lowest member for
	// the widths scaleGroupSize picks, so the grouped run measures the
	// common case: a non-delegate death detected inside its group).
	victim := n/2 + 1
	if victim >= n {
		victim = n - 1
	}
	dets[victim].Close()
	dets[victim] = nil
	nw.Kill(victim)
	killAt := time.Now()
	preKill := nw.Stats()

	// Await every survivor at epoch >= 2, skipping ranks already seen
	// there: the sweep touches each detector's mutex, and on a small host
	// a hot polling loop would itself contend with the agreement traffic
	// it is timing. The deadline lives OUTSIDE the sweep goroutine — a
	// world that livelocks post-kill can wedge a detector's mutex, and a
	// sweep blocked inside Epoch() would never reach an inline deadline
	// check. On timeout the stuck world is abandoned (closing it would
	// block on the same mutexes); the bench errors out anyway.
	awaited := make(chan struct{})
	go func() {
		defer close(awaited)
		agreed := make([]bool, n)
		for remaining := n - 1; remaining > 0; {
			for r, d := range dets {
				if d == nil || agreed[r] {
					continue
				}
				if d.Epoch() >= 2 {
					agreed[r] = true
					remaining--
				}
			}
			if remaining > 0 {
				time.Sleep(hb / 4)
			}
		}
	}()
	wait := 60 * hb // successful agreements land well under this at every size
	if wait < 30*time.Second {
		wait = 30 * time.Second
	}
	select {
	case <-awaited:
	case <-time.After(wait):
		abandoned = true
		return nil, fmt.Errorf("bench: %d-rank world (group size %d) did not agree on the death within %v",
			n, groupSize, wait)
	}
	latency := time.Since(killAt)
	recovery := nw.Stats().MessagesSent - preKill.MessagesSent

	topo, groups := "flat", 1
	if groupSize > 1 {
		topo = fmt.Sprintf("grouped/%d", groupSize)
		groups = (n + groupSize - 1) / groupSize
	}
	return []string{
		fmt.Sprintf("%d", n),
		topo,
		fmt.Sprintf("%d", groups),
		fmt.Sprintf("%d", hb.Milliseconds()),
		fmt.Sprintf("%.1f", steady),
		fmt.Sprintf("%.1f", float64(latency.Microseconds())/1000),
		fmt.Sprintf("%d", recovery),
	}, nil
}
