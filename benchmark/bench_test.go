package main

import (
	"math"
	"os"
	"testing"
)

// The sigkill-recover workload re-executes this binary as its workers; in a
// test that binary is the test binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		workerMain(os.Args[1:])
		return
	}
	os.Exit(m.Run())
}

// TestSmoke runs each workload at a tiny size in both trace modes and
// checks that exactly the metrics BENCHMARK.json names are emitted, with
// their units and finite values, and that nothing failed. It keeps the
// benchmark compiling and running against later refactors of the layers it
// calls into.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	want := [2]map[string]string{{}, {}} // by trace mode: name -> unit
	for _, m := range bf.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[1][m.Name] = m.Unit
	}
	for mode, defs := range [2][]metricDef{endToEnd, perLayer} {
		if len(defs) != len(want[mode]) {
			t.Errorf("trace %d: the program defines %d metrics, BENCHMARK.json %d", mode, len(defs), len(want[mode]))
		}
		for _, d := range defs {
			if unit, ok := want[mode][d.name]; !ok || unit != d.unit {
				t.Errorf("trace %d: metric %s (%s) is not in BENCHMARK.json with that unit", mode, d.name, d.unit)
			}
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}

	for i, w := range workloads {
		name := w.name
		if i >= len(bf.Workloads) || bf.Workloads[i].Name != name {
			t.Errorf("workload %d: BENCHMARK.json and the program disagree on %s", i, name)
		}
		if name == "sigkill-recover" && os.Getenv("C3_BENCH_PROC") != "1" {
			continue // spawns processes and waits on detector timers
		}
		for mode := 0; mode < 2; mode++ {
			rec, err := runWorkload(w, 7, 0.2, mode, tiny(), t.TempDir())
			if err != nil {
				t.Fatalf("%s trace %d: %v", name, mode, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d %v", name, mode, rec.Correct, rec.Attempted, rec.Failed, rec.Failures)
			}
			if len(rec.Metrics) != len(want[mode]) {
				t.Errorf("%s trace %d: %d metrics emitted, want %d", name, mode, len(rec.Metrics), len(want[mode]))
			}
			for n, v := range rec.Metrics {
				if unit, ok := want[mode][n]; !ok || unit != v.Unit {
					t.Errorf("%s trace %d: emitted %s (%s), not in BENCHMARK.json with that unit", name, mode, n, v.Unit)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace %d: %s = %v", name, mode, n, v.Value)
				}
				if mode == 0 && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, n, v.Value)
				}
			}
		}
	}
}
