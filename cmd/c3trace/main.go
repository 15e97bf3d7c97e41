// Command c3trace merges per-rank flight-recorder dumps (rank<N>.c3tr,
// written by nodes run with -trace-dir) into one causally ordered timeline,
// stitched on the send/recv span links the transports piggyback on every
// frame. The merge re-verifies the happens-before invariant on every
// stitched edge — a receive whose Lamport clock is not strictly greater
// than its send's is a hard error, not a warning: the Lamport merge on the
// receive path makes the invariant unconditional, so a violation means
// corrupted dumps or a transport delivering frames across causality.
//
// Usage:
//
//	c3trace /tmp/c3-traces                  # merge a dump directory: summary
//	                                        # plus the phase-breakdown table
//	c3trace rank0.c3tr rank1.c3tr ...       # explicit dump files
//	c3trace -events /tmp/c3-traces          # additionally print the ordered
//	                                        # event timeline
//	c3trace -chrome out.json /tmp/c3-traces # write a Chrome trace_event file
//	                                        # (load in chrome://tracing or
//	                                        # https://ui.perfetto.dev)
//
// Exit status: 0 on a causally consistent merge, 1 on any error —
// including a happens-before violation — so CI can gate on it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"c3/internal/detect"
	"c3/internal/trace"
)

func main() {
	var (
		events = flag.Bool("events", false, "print the causally ordered event timeline")
		chrome = flag.String("chrome", "", "write the timeline as Chrome trace_event JSON to this file")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fatalf("usage: c3trace [-events] [-chrome out.json] <dump-dir | dump-file...>")
	}

	paths, err := dumpPaths(flag.Args())
	if err != nil {
		fatalf("%v", err)
	}
	if len(paths) == 0 {
		fatalf("no %s dumps found in %s", "*.c3tr", strings.Join(flag.Args(), " "))
	}

	var dumps []*trace.Dump
	for _, p := range paths {
		d, err := trace.ReadDump(p)
		if err != nil {
			fatalf("read %s: %v", p, err)
		}
		fmt.Printf("loaded %s: rank %d, %d events\n", p, d.Rank, len(d.Events))
		dumps = append(dumps, d)
	}

	tl, err := trace.Merge(dumps)
	if err != nil {
		fatalf("%v", err)
	}
	st := tl.Stats()
	fmt.Printf("\nmerged %d events from %d ranks: %d message edges, %d stitched, %d orphan recvs\n",
		st.Events, st.Ranks, st.Edges, st.Stitched, st.OrphanRecvs)
	fmt.Println("happens-before verified on every stitched edge")
	if len(st.InstantCounts) > 0 {
		var kinds []trace.Kind
		for k := range st.InstantCounts {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
		var parts []string
		for _, k := range kinds {
			parts = append(parts, fmt.Sprintf("%s=%d", k, st.InstantCounts[k]))
		}
		fmt.Printf("protocol events: %s\n", strings.Join(parts, " "))
	}

	if breakdown := tl.PhaseBreakdown(); len(breakdown) > 0 {
		fmt.Printf("\n%s", trace.FormatBreakdown(breakdown))
	}

	if *events {
		fmt.Println()
		printTimeline(tl)
	}
	if *chrome != "" {
		if err := writeChrome(*chrome, tl); err != nil {
			fatalf("write %s: %v", *chrome, err)
		}
		fmt.Printf("\nwrote Chrome trace to %s (open in chrome://tracing or ui.perfetto.dev)\n", *chrome)
	}
}

// dumpPaths expands arguments: a directory contributes every *.c3tr file
// inside it, anything else is taken as a dump file.
func dumpPaths(args []string) ([]string, error) {
	var paths []string
	for _, a := range args {
		fi, err := os.Stat(a)
		if err != nil {
			return nil, err
		}
		if !fi.IsDir() {
			paths = append(paths, a)
			continue
		}
		matches, err := filepath.Glob(filepath.Join(a, "*.c3tr"))
		if err != nil {
			return nil, err
		}
		sort.Strings(matches)
		paths = append(paths, matches...)
	}
	return paths, nil
}

// printTimeline renders the causally ordered event list, one line per
// event, with the edge direction spelled out on send/recv pairs.
func printTimeline(tl *trace.Timeline) {
	for i, ev := range tl.Events {
		line := fmt.Sprintf("%6d  clk=%-8d r%-3d %-10s %-7s", i, ev.Clock, ev.Rank, ev.Kind, ev.Phase)
		switch ev.Phase {
		case trace.PhaseSend:
			line += fmt.Sprintf(" -> r%d (%d bytes)", ev.Peer, ev.Arg)
		case trace.PhaseRecv:
			line += fmt.Sprintf(" <- r%d (%d bytes)", ev.Peer, ev.Arg)
		default:
			if ev.Kind == trace.KindSuspect {
				line += fmt.Sprintf(" r%d cause=%s", uint32(ev.Arg), detect.Cause(ev.Arg>>32))
			} else if ev.Arg != 0 {
				line += fmt.Sprintf(" arg=%d", ev.Arg)
			}
		}
		if ev.Span != 0 {
			line += fmt.Sprintf(" span=%#x", ev.Span)
		}
		fmt.Println(line)
	}
}

// chromeEvent is one entry in the Chrome trace_event JSON array format.
// pid encodes the rank (one process row per rank in the viewer), ts/dur
// are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	PID  int32          `json:"pid"`
	TID  int32          `json:"tid"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	ID   string         `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome renders the timeline in the trace_event format: Begin/End
// pairs become complete ("X") duration events, instants become "i", and
// stitched message edges become flow arrows ("s"/"f") so the viewer draws
// the cross-rank causality the merge verified.
func writeChrome(path string, tl *trace.Timeline) error {
	// The viewer wants non-negative timestamps; rebase on the earliest
	// event time across all ranks (comparable only per rank for virtual
	// clocks, but a shared rebase keeps rows aligned for wall clocks and
	// merely shifts virtual rows).
	var t0 int64
	for i, ev := range tl.Events {
		if i == 0 || ev.Time < t0 {
			t0 = ev.Time
		}
	}
	us := func(ns int64) float64 { return float64(ns-t0) / 1e3 }

	var out []chromeEvent
	begins := map[uint64]trace.Event{}
	for _, ev := range tl.Events {
		switch ev.Phase {
		case trace.PhaseBegin:
			begins[ev.Span] = ev
		case trace.PhaseEnd:
			if b, ok := begins[ev.Span]; ok {
				delete(begins, ev.Span)
				out = append(out, chromeEvent{
					Name: ev.Kind.String(), Cat: "phase", Ph: "X",
					PID: ev.Rank, TID: ev.Rank,
					TS: us(b.Time), Dur: float64(ev.Time-b.Time) / 1e3,
					Args: map[string]any{"arg": ev.Arg, "clock": ev.Clock},
				})
			}
		case trace.PhaseInstant:
			out = append(out, chromeEvent{
				Name: ev.Kind.String(), Cat: "event", Ph: "i",
				PID: ev.Rank, TID: ev.Rank, TS: us(ev.Time),
				Args: map[string]any{"arg": ev.Arg, "clock": ev.Clock},
			})
		}
	}
	for span, e := range tl.Edges {
		if e.Recv < 0 {
			continue
		}
		send, recv := tl.Events[e.Send], tl.Events[e.Recv]
		id := fmt.Sprintf("%#x", span)
		out = append(out, chromeEvent{
			Name: "msg", Cat: "edge", Ph: "s",
			PID: send.Rank, TID: send.Rank, TS: us(send.Time), ID: id,
		})
		out = append(out, chromeEvent{
			Name: "msg", Cat: "edge", Ph: "f",
			PID: recv.Rank, TID: recv.Rank, TS: us(recv.Time), ID: id,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })

	data, err := json.Marshal(map[string]any{"traceEvents": out})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "c3trace: "+format+"\n", args...)
	os.Exit(1)
}
