package main

import (
	"fmt"
	"os"
)

// compareReports prints, per workload, both reports' failed share (which
// may not increase) and, per (workload, end-to-end metric), both medians, the
// change, the bound from BENCHMARK.json and a verdict:
//
//	regressed   b is worse than a by more than the bound
//	unresolved  either report's own spread (interquartile range over its
//	            median) is wider than the bound, so the row decides nothing
//	ok          otherwise
//
// It returns the exit code: 1 if any row regressed, 2 on bad input.
func compareReports(pathA, pathB string) int {
	bad := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	root, err := findRoot()
	if err != nil {
		return bad(err)
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		return bad(err)
	}
	a, err := readReport(pathA)
	if err != nil {
		return bad(err)
	}
	b, err := readReport(pathB)
	if err != nil {
		return bad(err)
	}
	fmt.Printf("a: %s %v\nb: %s %v\n", pathA, a.Host, pathB, b.Host)
	fmt.Printf("%-16s %-12s %4s %12s %12s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "n", "a.median", "b.median", "change", "a.iqr", "b.iqr", "bound", "verdict")
	regressed := false
	for _, w := range bf.Workloads {
		// failed_share: no increase allowed, and a wrong output never.
		fa, fb := failedShare(a, w.Name), failedShare(b, w.Name)
		verdict := "ok"
		if fb > fa || incorrect(a, w.Name) || incorrect(b, w.Name) {
			verdict = "regressed"
			regressed = true
		}
		fmt.Printf("%-16s %-12s %4s %12.5g %12.5g %40s  %s\n", w.Name, "failed_share", "", fa, fb, "", verdict)
		for _, m := range bf.EndToEnd {
			va, vb := valuesOf(a, w.Name, m.Name), valuesOf(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-16s %-12s missing from a report\n", w.Name, m.Name)
				regressed = true
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma) // share of a's median by which b is worse
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "regressed"
				regressed = true
			case m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound):
				verdict = "unresolved"
			}
			fmt.Printf("%-16s %-12s %4d %12.5g %12.5g %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, len(va), ma, mb, 100*ratio(mb-ma, ma), 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// failedShare is failed / attempted over a report's runs of a workload.
func failedShare(r *report, workload string) float64 {
	var failed, attempted int
	for _, run := range r.Runs {
		if run.Workload == workload {
			failed += run.Failed
			attempted += run.Attempted
		}
	}
	return ratio(float64(failed), float64(attempted))
}

// incorrect reports whether any run of the workload produced a wrong output.
func incorrect(r *report, workload string) bool {
	for _, run := range r.Runs {
		if run.Workload == workload && !run.Correct {
			return true
		}
	}
	return false
}

// valuesOf collects one metric over a report's untraced runs of a workload.
func valuesOf(r *report, workload, metric string) []float64 {
	var vs []float64
	for _, run := range r.Runs {
		if run.Workload != workload || run.Trace != 0 {
			continue
		}
		if m, ok := run.Metrics[metric]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// spread is the interquartile range as a share of the median, with the
// quartiles Python's statistics.quantiles(values, n=4) gives (the method
// the driver uses): positions (n+1)/4 and 3(n+1)/4, interpolated.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	return ratio(exclusiveQuantile(vs, 0.75)-exclusiveQuantile(vs, 0.25), median(vs))
}
