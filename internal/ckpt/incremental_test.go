package ckpt

import (
	"testing"

	"c3/internal/mpi"
	"c3/internal/stable"
	"c3/internal/statesave"
)

// newIncrementalLine is a one-rank world taking incremental lines of reg
// into store, a full anchor every fourth line.
func newIncrementalLine(tb testing.TB, store stable.Store, reg *statesave.Registry) *diskLine {
	tb.Helper()
	world := mpi.NewWorld(1)
	tb.Cleanup(world.Shutdown)
	l, err := New(world.Proc(0), Config{Store: store, State: reg, FullCheckpointEvery: 4})
	if err != nil {
		tb.Fatal(err)
	}
	return &diskLine{layer: l}
}

// TestIncrementalRestoreSkipsRemovedSection is the tombstone rule: a
// section that the line-5 anchor holds but that was unregistered before
// lines 6 and 7 must not come back when line 7 is restored, even though
// the restart registers it again. Nor when the delta line 8, taken with
// the section registered again at zero, is restored: the restore's digests
// leave the section out, so line 8 holds its zero.
func TestIncrementalRestoreSkipsRemovedSection(t *testing.T) {
	reg := statesave.NewRegistry()
	it, scratch := reg.Int("it"), reg.Int("scratch")
	d := newIncrementalLine(t, stable.NewMemStore(), reg)
	scratch.Set(777)
	for line := 1; line <= 7; line++ {
		it.Set(line)
		d.checkpoint(t)
		if line == 5 {
			reg.Unregister("scratch")
		}
	}
	// The restart's prologue registers scratch again, at zero.
	scratch = reg.Int("scratch")
	it.Set(0)
	d.restore(t)
	if it.Get() != 7 {
		t.Fatalf("it = %d after restoring line 7, want 7", it.Get())
	}
	if scratch.Get() != 0 {
		t.Fatalf("scratch = %d after restoring line 7: the section removed after line 5 came back from the anchor", scratch.Get())
	}
	it.Set(8)
	d.checkpoint(t)
	scratch.Set(9)
	d.restore(t)
	if it.Get() != 8 || scratch.Get() != 0 {
		t.Fatalf("it = %d, scratch = %d after restoring line 8, want 8 and 0", it.Get(), scratch.Get())
	}
}

// TestIncrementalLineAllocatesNoImage pins an incremental line's copies on
// a DiskStore: an anchor writes the registered slice where it lies, a
// delta writes only the small section that changed, and restoring the
// chain reads the slice back from the anchor's section file into it, so
// none of them builds an image of the 8 MiB state in memory.
func TestIncrementalLineAllocatesNoImage(t *testing.T) {
	const size = 8 << 20
	store, err := stable.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := statesave.NewRegistry()
	data := reg.Float64s("x", size/8).Data() // never changes
	for i := range data {
		data[i] = float64(i) * 0.5
	}
	hot := reg.Int("hot") // changes every line
	d := newIncrementalLine(t, store, reg)
	for line := 1; line <= 3; line++ {
		hot.Set(line)
		if got := allocated(func() { d.checkpoint(t) }); got >= 1<<20 {
			t.Errorf("line %d of an %d-byte state allocated %d bytes", line, size, got)
		}
	}
	clear(data)
	hot.Set(0)
	if got := allocated(func() { d.restore(t) }); got >= 1<<20 {
		t.Errorf("restoring the chain of an %d-byte state allocated %d bytes", size, got)
	}
	if hot.Get() != 3 {
		t.Fatalf("hot = %d after restoring line 3, want 3", hot.Get())
	}
	for i, v := range data {
		if v != float64(i)*0.5 {
			t.Fatalf("x[%d] = %v after the restore, want %v (in the registered slice)", i, v, float64(i)*0.5)
		}
	}
}
