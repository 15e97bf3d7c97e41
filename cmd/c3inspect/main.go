// Command c3inspect examines checkpoints in an on-disk store: which
// versions are committed per rank, the global recovery line, the commit
// marker's metadata (membership epoch, codec geometry, per-section
// digests), and the per-section contents of a checkpoint.
//
// Usage:
//
//	c3inspect -store /tmp/ckpts                 # overview with marker meta
//	c3inspect -store /tmp/ckpts -rank 2 -v 3    # one checkpoint's sections,
//	                                            # digest-verified against the
//	                                            # commit marker
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"c3/internal/stable"
)

func main() {
	var (
		dir     = flag.String("store", "", "checkpoint directory (required)")
		rank    = flag.Int("rank", -1, "rank to inspect (-1: overview)")
		version = flag.Int("v", -1, "version to inspect (-1: last committed)")
		ranks   = flag.Int("ranks", 64, "maximum rank to scan in the overview")
	)
	flag.Parse()
	if *dir == "" {
		fatalf("-store is required")
	}
	store, err := stable.NewDiskStore(*dir)
	if err != nil {
		fatalf("open store: %v", err)
	}

	if *rank < 0 {
		overview(store, *ranks)
		return
	}
	if err := inspect(os.Stdout, store, *rank, *version); err != nil {
		fatalf("%v", err)
	}
}

// overview lists each rank's last committed version with its marker
// metadata and the global recovery line.
func overview(store *stable.DiskStore, ranks int) {
	lasts := make([]int, 0, ranks)
	oks := make([]bool, 0, ranks)
	found := 0
	for r := 0; r < ranks; r++ {
		v, ok, err := store.LastCommitted(r)
		if err != nil {
			fatalf("rank %d: %v", r, err)
		}
		if !ok {
			continue
		}
		fmt.Printf("rank %4d: last committed version %d%s\n", r, v, markerBrief(store, r, v))
		found++
		lasts = append(lasts, v)
		oks = append(oks, true)
	}
	if found == 0 {
		fmt.Println("no committed checkpoints")
		return
	}
	if line, ok := stable.GlobalLine(lasts, oks); ok {
		fmt.Printf("global recovery line (over %d ranks with checkpoints): version %d\n", found, line)
	}
}

// markerBrief renders the one-line marker summary for the overview.
func markerBrief(store *stable.DiskStore, rank, version int) string {
	meta, err := store.Meta(rank, version)
	if err != nil {
		return fmt.Sprintf("  (marker: %v)", err)
	}
	return fmt.Sprintf("  membership-epoch %d codec %s sections %d",
		meta.MembershipEpoch, meta.CodecName(), len(meta.Sections))
}

// inspect prints one checkpoint's sections and cross-checks them against
// the commit marker's digests. Any disagreement is the returned error.
func inspect(w io.Writer, store *stable.DiskStore, rank, version int) error {
	v := version
	if v < 0 {
		last, ok, err := store.LastCommitted(rank)
		if err != nil || !ok {
			return fmt.Errorf("rank %d has no committed checkpoint (%v)", rank, err)
		}
		v = last
	}

	meta, err := store.Meta(rank, v)
	if err != nil {
		return fmt.Errorf("rank %d version %d marker: %w", rank, v, err)
	}
	fmt.Fprintf(w, "rank %d version %d: marker format %d, membership-epoch %d, codec %s\n",
		rank, v, meta.Format, meta.MembershipEpoch, meta.CodecName())
	recorded := make(map[string]stable.SectionMeta, len(meta.Sections))
	for _, s := range meta.Sections {
		recorded[s.Name] = s
	}

	snap, err := store.Open(rank, v)
	if err != nil {
		return fmt.Errorf("open rank %d version %d: %w", rank, v, err)
	}
	defer snap.Close()
	sections, err := snap.Sections()
	if err != nil {
		return fmt.Errorf("list sections: %w", err)
	}
	total, bad := 0, 0
	for _, name := range sections {
		data, err := snap.ReadSection(name)
		if err != nil {
			return fmt.Errorf("read %q: %w", name, err)
		}
		note := ""
		if s, ok := recorded[name]; ok {
			switch {
			case s.Bytes != len(data):
				note = fmt.Sprintf("  SIZE MISMATCH (marker %d)", s.Bytes)
				bad++
			case meta.Format < 2:
				note = "  format 1 (FNV-1a) digest not verified"
			case s.Sum != stable.SectionSum(data):
				note = fmt.Sprintf("  DIGEST MISMATCH (marker %08x)", s.Sum)
				bad++
			default:
				note = fmt.Sprintf("  crc32c %08x ok", s.Sum)
			}
			delete(recorded, name)
		}
		fmt.Fprintf(w, "  %-10s %8d bytes%s\n", name, len(data), note)
		total += len(data)
	}
	fmt.Fprintf(w, "  %-10s %8d bytes\n", "total", total)
	for name := range recorded {
		fmt.Fprintf(w, "  MISSING: marker records section %q but the store has none\n", name)
		bad++
	}
	if bad > 0 {
		return fmt.Errorf("%d section(s) disagree with the commit marker", bad)
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "c3inspect: "+format+"\n", args...)
	os.Exit(1)
}
