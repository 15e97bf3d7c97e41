package statesave

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
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

// TestSavePartsMatchSave: the parts form is the same image, and its bulk
// parts are the registered memory itself, not a copy of it.
func TestSavePartsMatchSave(t *testing.T) {
	g, _ := goldenRegistry(true)
	img := g.Save()
	parts := g.SaveParts(nil)
	if !bytes.Equal(bytes.Join(parts, nil), img) {
		t.Fatal("the parts, concatenated, differ from Save's image")
	}
	// Change the registered memory after the parts were taken: a part that
	// views it changes with it.
	fs, bs := g.Float64s("fs", 5).Data(), g.Bytes("bs").Data()
	fs[0], bs[0] = 99, 'j'
	joined := bytes.Join(parts, nil)
	g2, _ := goldenRegistry(false)
	if err := g2.Load(joined); err != nil {
		t.Fatal(err)
	}
	if got := string(g2.Bytes("bs").Data()); got != "jello" {
		t.Fatalf("the Bytes part is a copy: it reads %q after the cell changed", got)
	}
	if got := g2.Float64s("fs", 5).Data()[0]; littleEndian && got != 99 {
		t.Fatalf("the Float64s part is a copy: it reads %v after the cell changed", got)
	}
	if !bytes.Equal(joined, g.Save()) {
		t.Fatal("the parts no longer match Save once the state changed")
	}
}

// TestSectionFilters: SaveParts with a filter is Save's image of a registry
// of just the admitted sections, Digests hashes the bodies Save writes, and
// LoadFrom with a filter restores the admitted sections and skips the
// rest, registered or not.
func TestSectionFilters(t *testing.T) {
	g, _ := goldenRegistry(true)
	keep := func(name string) bool { return name == "it" || name == "fs" || name == "custom" }
	sub := NewRegistry()
	for _, s := range g.sections {
		if keep(s.Name()) {
			sub.Register(s)
		}
	}
	img := bytes.Join(g.SaveParts(keep), nil)
	if !bytes.Equal(img, sub.Save()) {
		t.Fatal("the filtered parts differ from Save's image of the admitted sections")
	}

	digests := g.Digests()
	if len(digests) != len(g.sections) {
		t.Fatalf("%d digests for %d sections", len(digests), len(g.sections))
	}
	for _, s := range g.sections {
		body := wire.NewWriter(0)
		s.Save(body)
		h := fnv.New64a()
		h.Write(body.Bytes())
		if digests[s.Name()] != h.Sum64() {
			t.Errorf("section %q: digest %x, want the FNV-64a of its body %x", s.Name(), digests[s.Name()], h.Sum64())
		}
	}

	g2 := NewRegistry()
	it, fs := g2.Int("it"), g2.Float64s("fs", 5)
	x := g2.Float64("x") // registered but not admitted
	x.Set(7)
	full := g.Save()
	if err := g2.LoadFrom(bytes.NewReader(full), int64(len(full)), func(name string) bool { return name == "it" || name == "fs" }); err != nil {
		t.Fatal(err)
	}
	if it.Get() != 42 || fs.Data()[0] != 1 || x.Get() != 7 {
		t.Fatalf("filtered load: it=%d fs[0]=%v x=%v, want 42 1 7", it.Get(), fs.Data()[0], x.Get())
	}
}

// loaders are the two entry points of the one decoder: an image in memory,
// and the same bytes read through an io.ReaderAt.
var loaders = []struct {
	name string
	load func(g *Registry, img []byte) error
}{
	{"Load", func(g *Registry, img []byte) error { return g.Load(img) }},
	{"LoadFrom", func(g *Registry, img []byte) error {
		return g.LoadFrom(bytes.NewReader(img), int64(len(img)), nil)
	}},
}

func TestParentImageRestores(t *testing.T) {
	for _, l := range loaders {
		t.Run(l.name, func(t *testing.T) { testParentImageRestores(t, l.load) })
	}
}

func testParentImageRestores(t *testing.T, load func(*Registry, []byte) error) {
	g, h := goldenRegistry(false)
	grid := h.Alloc("grid", 16) // allocated before the restore; "empty" after it
	fs, _ := g.Lookup("fs")
	alias := fs.(*Float64s).Data()
	if err := load(g, parentImage(t)); err != nil {
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
	// The same cuts of a section file, and images whose count promises
	// more than the body holds: "v"'s body length is at offset 9 and its
	// count at 13.
	patched := func(at int, v uint32) []byte {
		b := bytes.Clone(img)
		binary.LittleEndian.PutUint32(b[at:], v)
		return b
	}
	bad := map[string][]byte{
		"inflated count":       patched(13, 1001),
		"huge count":           patched(13, 1<<31-1),
		"inflated body length": patched(9, 4+8*1001),
		"shrunken body length": patched(9, 4+8*500),
	}
	for _, cut := range []int{len(img) - 1, len(img) - 8, len(img) / 2, 20} {
		bad[fmt.Sprintf("file cut to %d", cut)] = img[:cut]
	}
	for what, b := range bad {
		f, err := os.Create(filepath.Join(t.TempDir(), "s_app.bin"))
		if err == nil {
			_, err = f.Write(b)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := g2.LoadFrom(f, int64(len(b)), nil); err == nil {
			t.Fatalf("%s: the section file loaded", what)
		}
		_ = f.Close() // read-only from here; the load's outcome is what counts
		untouched(what)
		if err := g2.Load(b); err == nil {
			t.Fatalf("%s: the image loaded", what)
		}
		untouched(what + " in memory")
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
	for _, l := range loaders {
		t.Run(l.name, func(t *testing.T) { testLoadDoesNotRetainImage(t, l.load) })
	}
}

func testLoadDoesNotRetainImage(t *testing.T, load func(*Registry, []byte) error) {
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
	if err := load(g2, img); err != nil {
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

// TestBytesLoadsWithOneCopy: a Bytes body read through an io.ReaderAt
// lands in the cell's new slice directly, not in a buffer its Load would
// copy again.
func TestBytesLoadsWithOneCopy(t *testing.T) {
	const size = 1 << 20
	g := NewRegistry()
	g.Bytes("b").SetData(bytes.Repeat([]byte{7}, size))
	img := g.Save()
	g2 := NewRegistry()
	b2 := g2.Bytes("b")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := g2.LoadFrom(bytes.NewReader(img), int64(len(img)), nil)
	runtime.ReadMemStats(&after)
	if err != nil || !bytes.Equal(b2.Data(), g.Bytes("b").Data()) {
		t.Fatalf("the Bytes cell did not load: %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2*size {
		t.Fatalf("loading a %d-byte Bytes cell allocated %d bytes", size, got)
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
