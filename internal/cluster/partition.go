package cluster

// Partition fault model: one declarative spec drives both deployment
// shapes. In the virtual scheduled world (cluster.Run) a PartitionSpec is
// expanded into transport.SchedPartitionEvents armed on the deterministic
// scheduler, so the same split replays from a recorded trace and shrinks
// under ddmin. In the multi-process world the launcher installs the same
// group split on every process's TCP meshes (ExternalPartitionSpec, the
// `part`/`heal` pipe commands), so the split happens as real per-pair
// frame severing.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"c3/internal/transport"
)

// PartitionSpec declares one partition episode for the virtual scheduled
// world: at a seeded trigger step the world splits into GroupA and the
// rest, and after HealAfterSteps of logical time the split heals.
type PartitionSpec struct {
	// GroupA is one side of the split; the other side is the complement.
	GroupA []int
	// Asymmetric severs only the B->A direction (A's frames are delivered,
	// B's answers vanish) — the pathological half-open split.
	Asymmetric bool
	// Hold buffers severed frames for delivery at the heal instead of
	// dropping them (a split shorter than the transport's retransmission
	// patience). The in-process scheduled runtime has no failure detector,
	// so scenario specs use hold — a dropped MPI frame would stall the
	// world forever.
	Hold bool
	// AtStep is the earliest logical step the partition can start; the
	// actual trigger adds a seeded draw in [0, Jitter].
	AtStep int64
	// Jitter randomizes the trigger per seed (0: fire exactly at AtStep).
	Jitter int64
	// HealAfterSteps is the split's length in logical steps (0: a
	// partition that never heals within the attempt).
	HealAfterSteps int64
	// Attempt selects which attempt the episode runs in (0-based).
	Attempt int
}

// Events expands the spec into the scheduler's armed event list: the
// split followed (when HealAfterSteps > 0) by its heal.
func (p PartitionSpec) Events(ranks int) []transport.SchedPartitionEvent {
	ev := transport.SchedPartitionEvent{
		Block:  SplitPairs(p.GroupA, ranks, p.Asymmetric),
		Hold:   p.Hold,
		At:     p.AtStep,
		Jitter: p.Jitter,
	}
	out := []transport.SchedPartitionEvent{ev}
	if p.HealAfterSteps > 0 {
		out = append(out, transport.SchedPartitionEvent{
			Heal: true,
			At:   p.AtStep + p.Jitter + p.HealAfterSteps,
		})
	}
	return out
}

// ExternalPartitionSpec schedules the launcher-as-operator network split
// for the multi-process self-healing world: the launcher tells every
// process to sever GroupA from the rest, then heals after a delay. The
// majority side must commit an epoch declaring the minority dead and keep
// going; the minority must fence (zero checkpoint commits while split)
// and rejoin at the heal.
type ExternalPartitionSpec struct {
	// GroupA is the rank set severed from the rest (symmetric split).
	GroupA []int
	// AfterCheckpoints installs the partition once the GroupA ranks have
	// reported this many checkpoint commits in total and every compute
	// rank has reported a committed line (the split lands mid-logging-phase,
	// not at a quiet boundary, and a complete recovery line exists for the
	// heal to restore). 0 installs it as soon as the run starts.
	AfterCheckpoints int
	// HealAfter heals the split this long after installing it.
	HealAfter time.Duration
}

// SplitPairs expands a group split into the directed (from, to) pairs to
// sever. Symmetric splits cut both directions between GroupA and its
// complement; asymmetric splits deliver A->B but drop B->A.
func SplitPairs(groupA []int, ranks int, asymmetric bool) [][2]int {
	inA := make(map[int]bool, len(groupA))
	for _, r := range groupA {
		inA[r] = true
	}
	var pairs [][2]int
	for a := 0; a < ranks; a++ {
		if !inA[a] {
			continue
		}
		for b := 0; b < ranks; b++ {
			if inA[b] {
				continue
			}
			pairs = append(pairs, [2]int{b, a}) // B->A always severed
			if !asymmetric {
				pairs = append(pairs, [2]int{a, b})
			}
		}
	}
	return pairs
}

// ParseGroup parses a "+"-separated rank list ("3+4").
func ParseGroup(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, "+") {
		r, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad rank %q in group %q", f, s)
		}
		out = append(out, r)
	}
	sort.Ints(out)
	return out, nil
}

// FormatGroup renders a rank list in ParseGroup's syntax.
func FormatGroup(ranks []int) string {
	parts := make([]string, len(ranks))
	for i, r := range ranks {
		parts[i] = strconv.Itoa(r)
	}
	return strings.Join(parts, "+")
}

// ParsePartitionSpec parses the c3node -partition flag syntax:
//
//	a=3+4,after=2,heal=3s
//
// a names the severed group, after the total GroupA checkpoint count that
// triggers the split (default 2), heal the split duration (default 3s).
func ParsePartitionSpec(s string) (*ExternalPartitionSpec, error) {
	spec := &ExternalPartitionSpec{AfterCheckpoints: 2, HealAfter: 3 * time.Second}
	for _, f := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(f), "=")
		if !ok {
			return nil, fmt.Errorf("cluster: partition spec field %q (want k=v)", f)
		}
		switch k {
		case "a":
			g, err := ParseGroup(v)
			if err != nil {
				return nil, fmt.Errorf("cluster: partition spec: %v", err)
			}
			spec.GroupA = g
		case "after":
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("cluster: partition spec after=%q: %v", v, err)
			}
			spec.AfterCheckpoints = n
		case "heal":
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("cluster: partition spec heal=%q: %v", v, err)
			}
			spec.HealAfter = d
		default:
			return nil, fmt.Errorf("cluster: partition spec has unknown field %q", k)
		}
	}
	if len(spec.GroupA) == 0 {
		return nil, fmt.Errorf("cluster: partition spec names no group (a=...)")
	}
	return spec, nil
}
