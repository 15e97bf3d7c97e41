package stable

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"c3/internal/statesave"
)

// partsRegistry is application state whose parts form has views among
// its parts: bulk slices and a Bytes cell between scalars.
func partsRegistry() *statesave.Registry {
	g := statesave.NewRegistry()
	g.Int("it").Set(7)
	x := g.Float64s("x", 4096).Data()
	for i := range x {
		x[i] = float64(i) / 3
	}
	copy(g.Int64s("idx", 3).Data(), []int64{-1, 0, 1 << 40})
	g.Bytes("blob").SetData([]byte("bytes between the bulk sections"))
	g.Float64("rho").Set(0.25)
	return g
}

// TestWritePartsIsWriteSection: a line written as a registry's parts, and
// one written as its image, load back into the registry in place in every
// store; on disk, the two lines' section files and marker records agree.
func TestWritePartsIsWriteSection(t *testing.T) {
	g := partsRegistry()
	img := g.Save()
	dist := NewReplicatedStore(3)
	defer dist.Close()
	stores := map[string]Store{
		"mem":     NewMemStore(),
		"delayed": NewDelayedStore(NewMemStore(), 0, 0),
		"dist":    dist,
	}
	disk, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stores["disk"] = disk
	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			write := func(v int, w func(ck Checkpoint) error) {
				ck, err := s.Begin(0, v)
				if err == nil {
					err = w(ck)
				}
				if err == nil {
					err = ck.Commit()
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			write(1, func(ck Checkpoint) error { return ck.WriteSection("app", img) })
			write(2, func(ck Checkpoint) error { return ck.WriteParts("app", g.SaveParts(nil)) })
			for v := 1; v <= 2; v++ {
				snap, err := s.Open(0, v)
				if err != nil {
					t.Fatal(err)
				}
				sec, err := snap.OpenSection("app")
				if err != nil {
					t.Fatal(err)
				}
				g2 := partsRegistry()
				x := g2.Float64s("x", 0).Data()
				clear(x)
				if err := g2.LoadFrom(sec, sec.Size(), nil); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(g2.Save(), img) || &g2.Float64s("x", 0).Data()[0] != &x[0] {
					t.Fatalf("v%d: the section did not load back in place", v)
				}
				if err := sec.Close(); err != nil {
					t.Fatal(err)
				}
				_ = snap.Close() // read-only snapshot
			}
		})
	}
	// On disk, the two lines' section files and marker records agree.
	files := [2][]byte{}
	metas := [2]CommitMeta{}
	for i, v := range []int{1, 2} {
		if files[i], err = os.ReadFile(filepath.Join(disk.dir(0, v), sectionFile("app"))); err != nil {
			t.Fatal(err)
		}
		if metas[i], err = disk.Meta(0, v); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("the section file written as parts differs from the one WriteSection wrote")
	}
	if !reflect.DeepEqual(metas[0].Sections, metas[1].Sections) || metas[1].Sections[0].Sum != SectionSum(img) {
		t.Fatalf("marker records differ: %+v vs %+v", metas[0].Sections, metas[1].Sections)
	}
}

// TestNullStoreCountsParts: the null store counts a parts write's bytes.
func TestNullStoreCountsParts(t *testing.T) {
	s := NewNullStore()
	ck, err := s.Begin(0, 1)
	if err == nil {
		err = ck.WriteParts("app", [][]byte{[]byte("ab"), nil, []byte("cde")})
	}
	if err != nil {
		t.Fatal(err)
	}
	if s.BytesWritten() != 5 {
		t.Fatalf("counted %d bytes, want 5", s.BytesWritten())
	}
}
