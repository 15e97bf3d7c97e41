package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (nothing inside the program under test is instrumented). Spans of
// one checkpoint, restore or kill cycle share a Cycle id; Parent is the
// index of the enclosing span in the trace, -1 for a span no other encloses
// (a cycle may have several: a checkpoint's start and commit phases are
// separated by application compute).
type span struct {
	Name string `json:"name"`
	// Kind is "op" or "alt": which of the workload's two operations the
	// span's cycle is an instance of.
	Kind    string `json:"kind"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Cycle   int    `json:"cycle"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced pass runs the same workload code.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	cycles int
}

// nextCycle allocates the id the spans of one cycle share.
func (t *tracer) nextCycle() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cycles++
	return t.cycles
}

// newTracer sizes the span buffer for a whole pass, so recording a span
// never pays for growing it.
func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<17)} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(kind, name string, parent, cycle int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Kind: kind, StartNS: now, Parent: parent, Cycle: cycle})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (a worker
// process's timestamps, a store decorator's window).
func (t *tracer) add(kind, name string, start, end time.Time, parent, cycle int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Kind: kind, StartNS: start.Sub(t.t0).Nanoseconds(),
		EndNS: end.Sub(t.t0).Nanoseconds(), Parent: parent, Cycle: cycle})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// selfTimes returns, over the cycles of one kind, the per-cycle self time
// (ms) of every span name: a span's duration minus the part its children
// cover.
func (t *tracer) selfTimes(kind string) map[string][]float64 {
	selfMS := make(map[string][]float64)
	if t == nil {
		return selfMS
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNS - s.StartNS
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	cycles := make(map[int]map[string]int64) // cycle -> span name -> self ns
	var order []int
	names := make(map[string]bool)
	for i, s := range spans {
		if s.Kind != kind {
			continue
		}
		c := cycles[s.Cycle]
		if c == nil {
			c = make(map[string]int64)
			cycles[s.Cycle] = c
			order = append(order, s.Cycle)
		}
		c[s.Name] += self[i]
		names[s.Name] = true
	}
	for _, id := range order {
		for n := range names {
			selfMS[n] = append(selfMS[n], float64(cycles[id][n])/1e6)
		}
	}
	return selfMS
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
