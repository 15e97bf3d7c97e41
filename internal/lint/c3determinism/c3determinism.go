// Package c3determinism forbids ambient nondeterminism — wall-clock reads
// and globally seeded randomness — inside the packages governed by the
// deterministic schedule engine.
//
// Motivation (PR 2): replayable traces and ddmin shrinking only work if the
// scheduled code's behavior is a pure function of the schedule. A single
// time.Now or global rand call re-introduces the ~40% stress flake the
// schedule engine was built to kill. Governed code must take time from the
// injected Clock (transport.Scheduler's logical clock, which ckpt.New
// picks up from the world) and randomness from an explicitly seeded *rand.Rand.
//
// Constructing a seeded generator (rand.New, rand.NewSource, ...) is
// allowed — that IS the sanctioned pattern; only the package-level
// convenience functions, which draw from the global shared source, and the
// wall-clock entry points of package time are banned.
package c3determinism

import (
	"go/types"

	"c3/internal/lint/analysis"
)

// GovernedPackages lists the import paths under the schedule engine's
// jurisdiction. transport/tcp is deliberately absent: the TCP mesh talks to
// real kernels and real deadlines, and is exercised by the scheduler only
// through its in-memory twin.
var GovernedPackages = map[string]bool{
	"c3/internal/ckpt":      true,
	"c3/internal/mpi":       true,
	"c3/internal/sched":     true,
	"c3/internal/transport": true,
}

// bannedTime are the package time entry points that read or wait on the
// wall clock. Since and Until are included: both call time.Now internally.
var bannedTime = map[string]string{
	"Now":       "use the injected Clock",
	"Sleep":     "block on the scheduler or a channel instead",
	"After":     "use the injected Clock / scheduler timers",
	"AfterFunc": "use the injected Clock / scheduler timers",
	"Tick":      "use the injected Clock / scheduler timers",
	"NewTimer":  "use the injected Clock / scheduler timers",
	"NewTicker": "use the injected Clock / scheduler timers",
	"Since":     "difference two injected Clock readings",
	"Until":     "difference two injected Clock readings",
}

// allowedRand are the math/rand and math/rand/v2 package-level functions
// that construct explicitly seeded state rather than drawing from the
// global source.
var allowedRand = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// Analyzer is the c3determinism pass.
var Analyzer = &analysis.Analyzer{
	Name: "c3determinism",
	Doc: "forbid time.Now/Sleep/After and global math/rand in scheduler-governed packages " +
		"(ckpt, mpi, sched, transport sans tcp); deterministic replay requires the injected " +
		"Clock and explicitly seeded RNGs",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !GovernedPackages[pass.Pkg.Path()] {
		return nil
	}
	// info.Uses catches calls AND function-value references (clock = time.Now
	// silently smuggles the wall clock past a call-site-only check).
	for id, obj := range pass.TypesInfo.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		// Package-level functions only: methods (e.g. (*rand.Rand).Intn,
		// (time.Time).Sub) are deterministic given deterministic inputs.
		if fn.Type().(*types.Signature).Recv() != nil {
			continue
		}
		switch fn.Pkg().Path() {
		case "time":
			if hint, banned := bannedTime[fn.Name()]; banned {
				pass.Reportf(id.Pos(), "time.%s breaks deterministic replay in %s; %s", fn.Name(), shortPath(pass.Pkg.Path()), hint)
			}
		case "math/rand", "math/rand/v2":
			if !allowedRand[fn.Name()] {
				pass.Reportf(id.Pos(), "global rand.%s breaks deterministic replay in %s; draw from an explicitly seeded *rand.Rand", fn.Name(), shortPath(pass.Pkg.Path()))
			}
		}
	}
	return nil
}

func shortPath(path string) string {
	const prefix = "c3/internal/"
	if len(path) > len(prefix) && path[:len(prefix)] == prefix {
		return path[len(prefix):]
	}
	return path
}
