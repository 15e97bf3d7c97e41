// Command benchmark is the repository's performance benchmark: five
// workloads over the real stack, end-to-end metrics from an untraced pass
// and per-layer metrics from a traced one. See README.md.
//
//	benchmark -workload W -seed N -seconds S -trace 0|1 [-json out.json]
//	benchmark -seed N [-trace 1]          every workload in turn
//	benchmark -compare a.json b.json      two reports against the bounds
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics. An operation that fails is counted and printed; an
// output that is wrong additionally makes the command exit non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		workerMain(os.Args[1:])
		return
	}
	var (
		only    = flag.String("workload", "", "workload to run (default: all, in turn)")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs derive from")
		seconds = flag.Float64("seconds", 14, "how long one run measures")
		traceOn = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end ones")
		jsonOut = flag.String("json", "", "append this run's record to the report in FILE")
		compare = flag.Bool("compare", false, "compare two -json reports given as arguments and exit")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs two report files")
		}
		os.Exit(compareReports(flag.Arg(0), flag.Arg(1)))
	}
	root, err := findRoot()
	if err != nil {
		fatalf("%v", err)
	}
	failed, ran := false, false
	for _, w := range workloads {
		if *only != "" && w.name != *only {
			continue
		}
		ran = true
		rec, err := runWorkload(w, *seed, *seconds, *traceOn, full(), filepath.Join(root, "benchmark", "out"))
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		if *jsonOut != "" {
			if err := appendRecord(*jsonOut, *rec); err != nil {
				fatalf("%v", err)
			}
		}
		line, err := json.Marshal(rec.result)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(line))
		failed = failed || !rec.Correct
	}
	if !ran {
		fatalf("unknown workload %q", *only)
	}
	if failed {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// runWorkload sets the workload up w.setups times and measures an equal
// share of the time on each instance, so that what differs from one
// bring-up to the next (ports, connections, file placement) averages out
// within the run. setup_s is the mean of the set-up times, not their median:
// a multi-process world comes up and down in steps of a redial window (see
// README), and the median of a few such times flips between the steps from
// run to run where the mean moves in proportion.
// An untraced run reports the end-to-end metrics; a traced one alternates
// untraced and traced slices on every instance, runs the layer probes, and
// reports the per-layer metrics.
func runWorkload(w workload, seed int64, seconds float64, traced int, sz sizes, outDir string) (*record, error) {
	name := w.name
	rec := &record{Workload: name, Seed: seed, Seconds: seconds, Trace: traced}
	rec.Correct = true
	rec.Metrics = make(map[string]metricValue)
	slice := time.Duration(seconds * float64(time.Second) / float64(w.setups))
	plain := newPass()
	var withSpans *pass
	var tr *tracer
	if traced != 0 {
		withSpans, tr = newPass(), newTracer()
	}
	var setups []float64
	tracedWall := 0.0
	for i := 0; i < w.setups; i++ {
		begin := time.Now()
		inst, err := w.setup(seed, sz)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(begin).Seconds())
		if traced == 0 {
			inst.run(slice, nil, plain)
		} else {
			inst.run(slice/2, nil, plain)
			begin = time.Now()
			inst.run(slice/2, tr, withSpans)
			tracedWall += time.Since(begin).Seconds()
		}
		inst.close()
	}

	var shown []metricDef
	if traced == 0 {
		values := map[string]float64{
			"setup_s": mean(setups),
			"op_ms":   quantile(plain.op, w.typical),
			"alt_ms":  quantile(plain.alt, w.typical),
		}
		for _, m := range endToEnd {
			rec.Metrics[m.name] = metricValue{values[m.name], m.unit}
		}
		shown = endToEnd
	} else {
		probes, err := runProbes(seed, sz)
		if err != nil {
			return nil, err
		}
		values := layerValues(w.typical, plain, withSpans, tr, probes)
		values["cycle_s"] = ratio(tracedWall, float64(len(withSpans.op)))
		for _, m := range perLayer {
			rec.Metrics[m.name] = metricValue{values[m.name], m.unit}
		}
		shown = perLayer
		if err := tr.write(filepath.Join(outDir, "trace-"+name+".json")); err != nil {
			return nil, err
		}
	}

	for _, p := range []*pass{plain, withSpans} {
		if p == nil {
			continue
		}
		rec.Attempted += p.attempted
		rec.Failed += p.failed
		rec.Failures = append(rec.Failures, p.failures...)
		rec.Correct = rec.Correct && !p.wrong
		if len(p.op) == 0 || len(p.alt) == 0 {
			rec.Failed++
			rec.Failures = append(rec.Failures, name+": a pass completed no operation of one kind")
		}
	}

	fmt.Printf("workload %s  seed %d  %.0f s  trace %d  setups %.3f s\n", name, seed, seconds, traced, setups)
	fmt.Printf("  op samples %d  alt samples %d  attempted %d  failed %d  failed_share %g\n",
		len(plain.op), len(plain.alt), rec.Attempted, rec.Failed, ratio(float64(rec.Failed), float64(rec.Attempted)))
	for _, m := range shown {
		fmt.Printf("  %-36s %14.6g %s\n", m.name, rec.Metrics[m.name].Value, m.unit)
	}
	for _, f := range rec.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	return rec, nil
}

// opLayers and altLayers are the span names that become share.* and
// alt_share.* metrics.
var (
	opLayers  = []string{"serialize", "store_write", "encode", "ship_ack", "store_commit", "suspect", "agree", "respawn", "restore"}
	altLayers = []string{"open", "read", "deserialize"}
)

// layerValues assembles the per-layer metrics of a traced run.
func layerValues(q float64, plain, withSpans *pass, tr *tracer, probes map[string]float64) map[string]float64 {
	v := make(map[string]float64)
	for k, x := range probes {
		v[k] = x
	}
	for k, x := range withSpans.layer {
		v[k] = x
	}
	op, alt := quantile(withSpans.op, q), quantile(withSpans.alt, q)
	self := tr.selfTimes("op")
	for _, l := range opLayers {
		v["share."+l] = ratio(quantile(self[l], q), op)
	}
	self = tr.selfTimes("alt")
	for _, l := range altLayers {
		v["alt_share."+l] = ratio(quantile(self[l], q), alt)
	}
	attributed := v["share.protocol"] + v["share.app"]
	for _, l := range opLayers {
		attributed += v["share."+l]
	}
	v["share.unattributed"] = 1 - attributed
	v["mpi.sends_per_op"] = ratio(withSpans.layer["_sends"], float64(len(withSpans.op)))
	v["op_ms_p95"] = quantile(plain.op, 0.95)
	v["op_samples"] = float64(len(plain.op))
	v["alt_samples"] = float64(len(plain.alt))
	v["trace_overhead_ratio"] = ratio(op, quantile(plain.op, q))
	return v
}

// hostInfo is the metadata stored with a report.
func hostInfo() map[string]string {
	h := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
	}
	if rel, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h["kernel"] = strings.TrimSpace(string(rel))
	}
	return h
}
