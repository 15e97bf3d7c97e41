package ckpt

import (
	"runtime"
	"testing"

	"c3/internal/mpi"
	"c3/internal/stable"
	"c3/internal/statesave"
)

// diskLine is a one-rank world whose state is one Float64s section,
// taking synchronous lines into a DiskStore: paper Configuration #3
// without the application around it.
type diskLine struct {
	layer *Layer
	store *stable.DiskStore
	data  []float64
}

func newDiskLine(tb testing.TB, size int) *diskLine {
	tb.Helper()
	store, err := stable.NewDiskStore(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	world := mpi.NewWorld(1)
	tb.Cleanup(world.Shutdown)
	reg := statesave.NewRegistry()
	data := reg.Float64s("x", size/8).Data()
	for i := range data {
		data[i] = float64(i) * 0.5
	}
	l, err := New(world.Proc(0), Config{Store: store, State: reg})
	if err != nil {
		tb.Fatal(err)
	}
	return &diskLine{layer: l, store: store, data: data}
}

// checkpoint takes one line, which commits at once in a world of one.
func (d *diskLine) checkpoint(tb testing.TB) {
	taken := d.layer.Stats().CheckpointsTaken
	if err := d.layer.Checkpoint(true); err != nil {
		tb.Fatal(err)
	}
	if d.layer.Stats().CheckpointsTaken != taken+1 || d.layer.Mode() != ModeRun {
		tb.Fatalf("the line did not commit: mode %v", d.layer.Mode())
	}
}

// retire drops every line but the newest, as a longer run would.
func (d *diskLine) retire(tb testing.TB) {
	v, ok, err := d.store.LastCommitted(0)
	if err == nil && ok {
		err = d.store.Retire(0, v)
	}
	if err != nil {
		tb.Fatal(err)
	}
}

func (d *diskLine) restore(tb testing.TB) {
	if ok, err := d.layer.Restore(); err != nil || !ok {
		tb.Fatalf("restore: %v, %v", ok, err)
	}
}

// allocated is the bytes the process allocated while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDiskLineAllocatesNoImage pins the disk line's copies: a synchronous
// line writes the registered slice to its section file where it lies, and
// a restart reads the file back into it, so neither side builds an image
// of the 8 MiB state in memory.
func TestDiskLineAllocatesNoImage(t *testing.T) {
	const size = 8 << 20
	d := newDiskLine(t, size)
	if got := allocated(func() { d.checkpoint(t) }); got >= 1<<20 {
		t.Errorf("an %d-byte line allocated %d bytes", size, got)
	}
	alias := d.data
	clear(alias)
	if got := allocated(func() { d.restore(t) }); got >= 1<<20 {
		t.Errorf("restoring an %d-byte line allocated %d bytes", size, got)
	}
	for i, v := range alias {
		if v != float64(i)*0.5 {
			t.Fatalf("x[%d] = %v after the restore, want %v (in the registered slice)", i, v, float64(i)*0.5)
		}
	}
}

// BenchmarkDiskLine prices one synchronous 8 MiB line into a DiskStore,
// from the pragma to the commit, and one restore of it.
func BenchmarkDiskLine(b *testing.B) {
	const size = 8 << 20
	b.Run("8MiB", func(b *testing.B) {
		b.Run("checkpoint", func(b *testing.B) {
			d := newDiskLine(b, size)
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.checkpoint(b)
				b.StopTimer()
				d.retire(b)
				b.StartTimer()
			}
		})
		b.Run("restore", func(b *testing.B) {
			d := newDiskLine(b, size)
			d.checkpoint(b)
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.restore(b)
			}
		})
	})
}
