package statesave

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"testing"

	"c3/internal/wire"
)

// Format and ownership tests: Save writes each section body straight into
// the image and Load decodes from views of it, and neither may change the
// bytes or let a section hold on to the caller's image.

// goldenRegistry builds a registry holding every cell kind — nil and empty
// slices, a Custom section and the heap among them. testdata/parent-image.bin
// is the image the tree before in-place Save/Load saved from this exact
// shape and content.
func goldenRegistry(fill bool) (*Registry, *Heap) {
	g := NewRegistry()
	it, x, ok := g.Int("it"), g.Float64("x"), g.Bool("ok")
	fs := g.Float64s("fs", 5)
	g.Float64s("fs-empty", 0)
	is := g.Int64s("is", 3)
	g.Int64s("is-empty", 0)
	bs := g.Bytes("bs")
	g.Bytes("bs-nil")
	g.Register(NewCustom("custom", func() int { return 64 },
		func(w *wire.Writer) {
			w.Int(-7)
			w.String("custom-state")
			w.U64s([]uint64{3, 1 << 63})
			w.Ints([]int{-9, 9})
			w.Ints(nil)
		},
		func(r *wire.Reader) error {
			i, s, us, is, none := r.Int(), r.String(), r.U64s(), r.Ints(), r.Ints()
			if r.Err() == nil && (i != -7 || s != "custom-state" || len(us) != 2 || us[1] != 1<<63 || len(is) != 2 || is[0] != -9 || none != nil) {
				return fmt.Errorf("custom section restored as %d %q %v %v %v", i, s, us, is, none)
			}
			return r.Err()
		}))
	h := NewHeap()
	g.Register(h.Section())
	if !fill {
		return g, h
	}
	it.Set(42)
	x.Set(-2.5)
	ok.Set(true)
	copy(fs.Data(), []float64{1, -0.5, math.Inf(1), math.NaN(), 1e-300})
	copy(is.Data(), []int64{-1, 0, 1 << 40})
	bs.SetData([]byte("hello"))
	scratch := h.Alloc("scratch", 8)
	grid := h.Alloc("grid", 16)
	for i := range grid.Data() {
		grid.Data()[i] = byte(3 * i)
	}
	h.Alloc("empty", 0)
	h.Free(scratch)
	return g, h
}

// refSave is the registry encoder as it was: every section into its own
// Writer, then copied into the image as a length-prefixed byte string.
func refSave(g *Registry) []byte {
	w := wire.NewWriter(0)
	w.U32(uint32(len(g.sections)))
	for _, s := range g.sections {
		w.String(s.Name())
		body := wire.NewWriter(0)
		s.Save(body)
		w.Bytes32(body.Bytes())
	}
	return w.Bytes()
}

func parentImage(t *testing.T) []byte {
	t.Helper()
	img, err := os.ReadFile("testdata/parent-image.bin")
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestSaveMatchesReferenceEncoder(t *testing.T) {
	g, h := goldenRegistry(true)
	img := g.Save()
	if !bytes.Equal(img, refSave(g)) {
		t.Fatal("Save differs from the per-section reference encoder")
	}
	if !bytes.Equal(img, parentImage(t)) {
		t.Fatal("Save differs from the image the previous encoder wrote for the same state")
	}
	// The heap section body is exactly the heap's own Save image.
	w := wire.NewWriter(0)
	h.Section().Save(w)
	r := wire.NewReader(w.Bytes())
	if !bytes.Equal(r.View32(), h.Save()) || r.Remaining() != 0 {
		t.Fatal("the heap section body is not a length-prefixed Heap.Save image")
	}
}

func TestParentImageRestores(t *testing.T) {
	g, h := goldenRegistry(false)
	grid := h.Alloc("grid", 16) // allocated before the restore; "empty" after it
	fs, _ := g.Lookup("fs")
	alias := fs.(*Float64s).Data()
	if err := g.Load(parentImage(t)); err != nil {
		t.Fatal(err)
	}
	if g.Int("it").Get() != 42 || g.Float64("x").Get() != -2.5 || !g.Bool("ok").Get() {
		t.Fatal("scalars not restored")
	}
	want := []float64{1, -0.5, math.Inf(1), math.NaN(), 1e-300}
	for i, v := range want {
		if math.Float64bits(alias[i]) != math.Float64bits(v) {
			t.Fatalf("fs[%d] = %v, want %v (in the registered slice)", i, alias[i], v)
		}
	}
	if is := g.Int64s("is", 3).Data(); is[0] != -1 || is[2] != 1<<40 {
		t.Fatalf("is = %v", is)
	}
	if len(g.Float64s("fs-empty", 0).Data()) != 0 || len(g.Int64s("is-empty", 0).Data()) != 0 {
		t.Fatal("empty slices restored non-empty")
	}
	if string(g.Bytes("bs").Data()) != "hello" || len(g.Bytes("bs-nil").Data()) != 0 {
		t.Fatalf("bytes = %q, %q", g.Bytes("bs").Data(), g.Bytes("bs-nil").Data())
	}
	for i, b := range grid.Data() {
		if b != byte(3*i) {
			t.Fatalf("heap grid[%d] = %d", i, b)
		}
	}
	if _, ok := h.Lookup("scratch"); ok {
		t.Fatal("a freed heap block came back")
	}
	if e := h.Alloc("empty", 0); len(e.Data()) != 0 {
		t.Fatal("empty heap block restored non-empty")
	}
	if h.HighWater() != 24 || h.FreedBytes() != 8 {
		t.Fatalf("heap accounting: high water %d, freed %d", h.HighWater(), h.FreedBytes())
	}
}

func TestTruncatedImageLeavesFloat64sUntouched(t *testing.T) {
	g := NewRegistry()
	src := g.Float64s("v", 1000)
	for i := range src.Data() {
		src.Data()[i] = float64(i)
	}
	img := g.Save()

	g2 := NewRegistry()
	dst := g2.Float64s("v", 1000)
	for i := range dst.Data() {
		dst.Data()[i] = -1
	}
	untouched := func(what string) {
		t.Helper()
		if len(dst.Data()) != 1000 {
			t.Fatalf("%s: the registered slice was replaced", what)
		}
		for i, v := range dst.Data() {
			if v != -1 {
				t.Fatalf("%s: element %d decoded in place (%v)", what, i, v)
			}
		}
	}
	for _, cut := range []int{len(img) - 1, len(img) - 8, len(img) / 2, 20} {
		if err := g2.Load(img[:cut]); err == nil {
			t.Fatalf("image cut to %d of %d bytes loaded", cut, len(img))
		}
		untouched("truncated image")
	}
	// The section itself, given a body that ends early.
	w := wire.NewWriter(0)
	src.Save(w)
	body := w.Bytes()
	if err := dst.Load(wire.NewReader(body[:len(body)-3])); err == nil {
		t.Fatal("truncated body loaded")
	}
	untouched("truncated body")
}

func TestLoadDoesNotRetainImage(t *testing.T) {
	g, h := NewRegistry(), NewHeap()
	g.Bytes("b").SetData([]byte("payload"))
	g.Register(h.Section())
	copy(h.Alloc("same", 4).Data(), "same")
	copy(h.Alloc("grown", 6).Data(), "grown!")
	copy(h.Alloc("later", 5).Data(), "later")
	img := g.Save()

	g2, h2 := NewRegistry(), NewHeap()
	b2 := g2.Bytes("b")
	g2.Register(h2.Section())
	same := h2.Alloc("same", 4)
	grown := h2.Alloc("grown", 2) // a different length: the block is replaced
	if err := g2.Load(img); err != nil {
		t.Fatal(err)
	}
	for i := range img {
		img[i] ^= 0xa5
	}
	later := h2.Alloc("later", 5) // claims contents parked by Load
	if string(b2.Data()) != "payload" {
		t.Fatalf("Bytes = %q after the image was overwritten", b2.Data())
	}
	grownNow, _ := h2.Lookup("grown")
	if string(same.Data()) != "same" || string(grownNow.Data()) != "grown!" || string(later.Data()) != "later" {
		t.Fatalf("heap = %q %q %q after the image was overwritten", same.Data(), grownNow.Data(), later.Data())
	}
	if grownNow != grown {
		t.Fatal("restore replaced the heap block instead of its contents")
	}
}

// The layer benchmarks: a registry of one 8 MiB Float64s section.
func benchRegistry() *Registry {
	g := NewRegistry()
	data := g.Float64s("a", 8<<20/8).Data()
	for i := range data {
		data[i] = float64(i) * 0.5
	}
	return g
}

func BenchmarkRegistrySave(b *testing.B) {
	b.Run("8MiB", func(b *testing.B) {
		g := benchRegistry()
		b.SetBytes(int64(g.LiveBytes()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(g.Save()) < g.LiveBytes() {
				b.Fatal("short image")
			}
		}
	})
}

func BenchmarkRegistryLoad(b *testing.B) {
	b.Run("8MiB", func(b *testing.B) {
		img := benchRegistry().Save()
		g := NewRegistry()
		g.Float64s("a", 8<<20/8)
		b.SetBytes(int64(g.LiveBytes()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := g.Load(img); err != nil {
				b.Fatal(err)
			}
		}
	})
}
