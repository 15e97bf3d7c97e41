package statesave

import (
	"bytes"
	"testing"

	"c3/internal/wire"
)

// fuzzRegistry builds the registry shape the decoders are loaded into.
func fuzzRegistry() (*Registry, *Heap) {
	g := NewRegistry()
	g.Int("it")
	g.Float64("residual")
	g.Bool("converged")
	g.Float64s("grid", 16)
	g.Int64s("counts", 4)
	g.Bytes("blob")
	h := NewHeap()
	g.Register(h.Section())
	return g, h
}

// FuzzDeserialize throws arbitrary bytes at every statesave decode entry
// point: Registry.Load, Registry.LoadFrom and Heap.Load. A corrupt
// checkpoint image must produce an error, never a panic or an oversized
// allocation.
func FuzzDeserialize(f *testing.F) {
	// Corpus: a real committed registry image, a real heap image, and the
	// parts an incremental checkpoint writes for an anchor and for a delta
	// of two sections — the exact bytes a checkpoint writes.
	g, h := fuzzRegistry()
	g.Int("it").Set(41)
	g.Float64s("grid", 16).Data()[3] = 2.5
	g.Bytes("blob").SetData([]byte("blob-contents"))
	_ = h.Alloc("work", 64)
	f.Add(g.Save())
	hw := wire.NewWriter(128)
	h.Section().Save(hw)
	f.Add(hw.Bytes())
	f.Add(bytes.Join(g.SaveParts(nil), nil))
	f.Add(bytes.Join(g.SaveParts(func(name string) bool { return name == "it" || name == "grid" }), nil))
	// Truncations and bit flips of the real image.
	img := g.Save()
	f.Add(img[:len(img)/2])
	flipped := append([]byte(nil), img...)
	flipped[0] ^= 0xff
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		g, h := fuzzRegistry()
		_ = g.Load(data) // error or success; must not panic
		g, _ = fuzzRegistry()
		_ = g.LoadFrom(bytes.NewReader(data), int64(len(data)), nil)
		g, _ = fuzzRegistry()
		_ = g.LoadFrom(bytes.NewReader(data), int64(len(data)), func(name string) bool { return name != "grid" })
		_ = h.Load(data) // likewise
	})
}
