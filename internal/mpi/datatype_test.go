package mpi

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestContiguousPackUnpack(t *testing.T) {
	ct, err := Contiguous(3, TypeFloat64)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Size() != 24 || ct.Extent() != 24 {
		t.Fatalf("size=%d extent=%d", ct.Size(), ct.Extent())
	}
	src := Float64Bytes([]float64{1, 2, 3, 4, 5, 6})
	packed, err := ct.Pack(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(packed, src) {
		t.Fatal("contiguous pack should be identity")
	}
	dst := make([]byte, len(src))
	if _, err := ct.Unpack(packed, dst, 2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("round trip mismatch")
	}
}

func TestVectorPack(t *testing.T) {
	// A column of a 4x4 row-major float64 matrix: count=4, blockLen=1, stride=4.
	vt, err := Vector(4, 1, 4, TypeFloat64)
	if err != nil {
		t.Fatal(err)
	}
	if vt.Size() != 32 {
		t.Fatalf("size=%d", vt.Size())
	}
	if vt.Extent() != ((3*4)+1)*8 {
		t.Fatalf("extent=%d", vt.Extent())
	}
	mat := make([]float64, 16)
	for i := range mat {
		mat[i] = float64(i)
	}
	src := Float64Bytes(mat)
	packed, err := vt.Pack(src, 1)
	if err != nil {
		t.Fatal(err)
	}
	col := BytesFloat64s(packed)
	want := []float64{0, 4, 8, 12}
	for i := range want {
		if col[i] != want[i] {
			t.Fatalf("col[%d]=%v want %v", i, col[i], want[i])
		}
	}
	// Unpack into a zeroed matrix and verify placement.
	dst := make([]byte, len(src))
	if _, err := vt.Unpack(packed, dst, 1); err != nil {
		t.Fatal(err)
	}
	out := BytesFloat64s(dst)
	for i := 0; i < 16; i++ {
		wantV := 0.0
		if i%4 == 0 {
			wantV = float64(i)
		}
		if out[i] != wantV {
			t.Fatalf("dst[%d]=%v want %v", i, out[i], wantV)
		}
	}
}

func TestVectorOverlapRejected(t *testing.T) {
	if _, err := Vector(2, 3, 2, TypeByte); err == nil {
		t.Fatal("overlapping vector accepted")
	}
}

func TestIndexedPackUnpack(t *testing.T) {
	it, err := Indexed([]int{2, 1}, []int{0, 5}, TypeInt64)
	if err != nil {
		t.Fatal(err)
	}
	if it.Size() != 24 || it.Extent() != 48 {
		t.Fatalf("size=%d extent=%d", it.Size(), it.Extent())
	}
	src := Int64Bytes([]int64{10, 11, 12, 13, 14, 15})
	packed, err := it.Pack(src, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := BytesInt64s(packed)
	want := []int64{10, 11, 15}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("packed[%d]=%d want %d", i, got[i], want[i])
		}
	}
	dst := make([]byte, 48)
	if _, err := it.Unpack(packed, dst, 1); err != nil {
		t.Fatal(err)
	}
	out := BytesInt64s(dst)
	if out[0] != 10 || out[1] != 11 || out[5] != 15 {
		t.Fatalf("unpacked %v", out)
	}
}

func TestStructHierarchy(t *testing.T) {
	// struct { int64 header; float64 values[3] } — a type built from a
	// contiguous child, exercising the datatype hierarchy.
	vals, err := Contiguous(3, TypeFloat64)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Struct([]int{1, 1}, []int{0, 8}, []*Datatype{TypeInt64, vals})
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 32 || st.Extent() != 32 {
		t.Fatalf("size=%d extent=%d", st.Size(), st.Extent())
	}
	src := make([]byte, 32)
	PutInt64s(src[0:8], []int64{7})
	PutFloat64s(src[8:32], []float64{1.5, 2.5, 3.5})
	packed, err := st.Pack(src, 1)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 32)
	if _, err := st.Unpack(packed, dst, 1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("struct round trip mismatch")
	}
}

func TestPackUnpackPropertyRoundTrip(t *testing.T) {
	// Property: for random vector shapes and random payloads, Unpack(Pack(x))
	// restores exactly the bytes Pack visited.
	f := func(countU, blockU, padU uint8, seed int64) bool {
		count := int(countU%5) + 1
		block := int(blockU%4) + 1
		stride := block + int(padU%3)
		vt, err := Vector(count, block, stride, TypeFloat64)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		src := make([]byte, vt.Extent()+64)
		rng.Read(src)
		packed, err := vt.Pack(src, 1)
		if err != nil {
			return false
		}
		if len(packed) != vt.Size() {
			return false
		}
		dst := make([]byte, len(src))
		if _, err := vt.Unpack(packed, dst, 1); err != nil {
			return false
		}
		repacked, err := vt.Pack(dst, 1)
		if err != nil {
			return false
		}
		return bytes.Equal(packed, repacked)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// walkPack and walkUnpack are the recursive element walk, the only path a
// non-dense type takes; the dense fast path must match them byte for byte.
func walkPack(d *Datatype, src []byte, count int) []byte {
	dst := make([]byte, 0, count*d.size)
	for i := 0; i < count; i++ {
		dst = d.packOne(dst, src[i*d.extent:])
	}
	return dst
}

func walkUnpack(d *Datatype, packed, dst []byte, count int) int {
	pos := 0
	for i := 0; i < count; i++ {
		pos = d.unpackOne(packed, pos, dst[i*d.extent:])
	}
	return pos
}

// checkAgainstWalk packs count elements of d from src and unpacks them into
// two copies of dst, one through Pack/Unpack and one through the walk, and
// reports the first difference.
func checkAgainstWalk(d *Datatype, src, dst []byte, count int) error {
	packed, err := d.Pack(src, count)
	if err != nil {
		return err
	}
	want := walkPack(d, src, count)
	if !bytes.Equal(packed, want) {
		return fmt.Errorf("Pack = %x, walk = %x", packed, want)
	}
	// Sends are eager: the packed bytes must not alias the caller's buffer.
	orig := bytes.Clone(src)
	for i := range src {
		src[i] ^= 0xff
	}
	aliased := !bytes.Equal(packed, want)
	copy(src, orig)
	if aliased {
		return fmt.Errorf("Pack returned bytes that alias src")
	}
	// Unpack from a longer buffer, as a receive of fewer elements than
	// arrived does: the bytes past count elements must stay unread.
	longer := append(bytes.Clone(packed), 0xa5, 0x5a, 0xa5)
	got, walked := bytes.Clone(dst), bytes.Clone(dst)
	n, err := d.Unpack(longer, got, count)
	if err != nil {
		return err
	}
	if wn := walkUnpack(d, longer, walked, count); n != wn || !bytes.Equal(got, walked) {
		return fmt.Errorf("Unpack consumed %d and wrote %x, walk consumed %d and wrote %x", n, got, wn, walked)
	}
	return nil
}

func TestDenseLayoutMatchesWalk(t *testing.T) {
	mk := func(d *Datatype, err error) *Datatype {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	f3 := mk(Contiguous(3, TypeFloat64))
	cases := []struct {
		name  string
		d     *Datatype
		dense bool
	}{
		{"byte", TypeByte, true},
		{"int64", TypeInt64, true},
		{"float64", TypeFloat64, true},
		{"complex128", TypeComplex128, true},
		{"contiguous-of-contiguous", mk(Contiguous(2, f3)), true},
		{"contiguous-of-vector", mk(Contiguous(2, mk(Vector(2, 1, 3, TypeInt64)))), false},
		{"vector-count-1", mk(Vector(1, 3, 7, TypeFloat64)), true},
		{"vector-count-0", mk(Vector(0, 3, 0, TypeFloat64)), true},
		{"vector-stride-eq-block", mk(Vector(4, 2, 2, TypeInt64)), true},
		{"vector-strided", mk(Vector(4, 1, 4, TypeFloat64)), false},
		{"indexed-consecutive", mk(Indexed([]int{2, 0, 1}, []int{0, 2, 2}, TypeInt64)), true},
		{"indexed-gapped", mk(Indexed([]int{2, 1}, []int{0, 5}, TypeInt64)), false},
		{"indexed-out-of-order", mk(Indexed([]int{1, 1}, []int{1, 0}, TypeInt64)), false},
		{"indexed-empty-block-past-end", mk(Indexed([]int{1, 0}, []int{0, 4}, TypeByte)), false},
		{"struct-in-order", mk(Struct([]int{1, 1}, []int{0, 8}, []*Datatype{TypeInt64, f3})), true},
		{"struct-reordered", mk(Struct([]int{1, 1}, []int{24, 0}, []*Datatype{TypeInt64, f3})), false},
		{"struct-padded", mk(Struct([]int{1, 1}, []int{0, 16}, []*Datatype{TypeByte, TypeFloat64})), false},
		{"struct-trailing-padding", mk(Struct([]int{1, 0}, []int{0, 16}, []*Datatype{TypeFloat64, TypeByte})), false},
		{"struct-non-dense-child", mk(Struct([]int{1}, []int{0}, []*Datatype{mk(Vector(2, 1, 2, TypeFloat64))})), false},
		{"struct-of-dense-derived", mk(Struct([]int{2, 1}, []int{0, 8}, []*Datatype{mk(Vector(2, 2, 2, TypeByte)), TypeComplex128})), true},
	}
	rng := rand.New(rand.NewSource(1))
	for _, c := range cases {
		if c.d.dense != c.dense {
			t.Errorf("%s: dense = %v, want %v", c.name, c.d.dense, c.dense)
		}
		if c.d.dense && c.d.size != c.d.extent {
			t.Errorf("%s: dense with size %d != extent %d", c.name, c.d.size, c.d.extent)
		}
		for count := 0; count <= 3; count++ {
			src := make([]byte, count*c.d.extent+5)
			dst := make([]byte, len(src))
			rng.Read(src)
			rng.Read(dst)
			if err := checkAgainstWalk(c.d, src, dst, count); err != nil {
				t.Errorf("%s, count %d: %v", c.name, count, err)
			}
		}
	}
}

// fuzzType builds a derived datatype from the fuzz input, at most depth
// levels deep and with blocks of at most a few elements, so the extent
// stays small. A shape the constructors reject becomes TypeByte.
func fuzzType(in *[]byte, depth int) *Datatype {
	next := func() int {
		if len(*in) == 0 {
			return 0
		}
		b := (*in)[0]
		*in = (*in)[1:]
		return int(b)
	}
	prims := []*Datatype{TypeByte, TypeInt64, TypeFloat64, TypeComplex128}
	op := next() % 5
	if depth == 0 {
		op = 0
	}
	var d *Datatype
	var err error
	switch op {
	case 0:
		return prims[next()%len(prims)]
	case 1:
		d, err = Contiguous(next()%4, fuzzType(in, depth-1))
	case 2:
		blk := next() % 3
		d, err = Vector(next()%4, blk, blk+next()%3, fuzzType(in, depth-1))
	case 3:
		n := next() % 4
		blks, displs := make([]int, n), make([]int, n)
		for i := range blks {
			blks[i], displs[i] = next()%3, next()%6
		}
		d, err = Indexed(blks, displs, fuzzType(in, depth-1))
	case 4:
		n := next() % 4
		blks, displs, types := make([]int, n), make([]int, n), make([]*Datatype, n)
		for i := range blks {
			blks[i], displs[i], types[i] = next()%3, next()%48, fuzzType(in, depth-1)
		}
		d, err = Struct(blks, displs, types)
	}
	if err != nil {
		return TypeByte
	}
	return d
}

// FuzzDatatypePack checks, for bounded derived types built from the input,
// that Pack matches the element walk, that Unpack matches the walk's
// writes (so the bytes the type covers are restored and no other byte
// changes), and that neither panics.
func FuzzDatatypePack(f *testing.F) {
	f.Add([]byte{0, 0}, uint8(1))
	f.Add([]byte{1, 3, 0, 2}, uint8(2))
	f.Add([]byte{2, 2, 3, 0, 0, 2}, uint8(3))
	f.Add([]byte{3, 2, 2, 0, 1, 2, 0, 1}, uint8(1))
	f.Add([]byte{4, 2, 1, 0, 0, 1, 1, 8, 0, 2}, uint8(2))
	f.Add([]byte{4, 2, 1, 8, 0, 2, 1, 0, 0, 1}, uint8(2))
	f.Fuzz(func(t *testing.T, shape []byte, countU uint8) {
		d := fuzzType(&shape, 3)
		count := int(countU % 4)
		if d.extent*count > 1<<16 {
			return
		}
		rng := rand.New(rand.NewSource(int64(len(shape))*31 + int64(countU)))
		src := make([]byte, count*d.extent+3)
		dst := make([]byte, len(src))
		rng.Read(src)
		rng.Read(dst)
		if err := checkAgainstWalk(d, src, dst, count); err != nil {
			t.Fatalf("dense=%v size=%d extent=%d count=%d: %v", d.dense, d.size, d.extent, count, err)
		}
		packed, _ := d.Pack(src, count)
		if _, err := d.Unpack(packed, dst, count); err != nil {
			t.Fatal(err)
		}
		if repacked, _ := d.Pack(dst, count); !bytes.Equal(repacked, packed) {
			t.Fatalf("Pack(Unpack(Pack(x))) = %x, want %x", repacked, packed)
		}
	})
}

// packCase is one layout the pack benchmarks measure.
type packCase struct {
	name  string
	d     *Datatype
	count int
}

// packCases are two dense layouts, as a small-message and a halo-exchange
// send use them, and a strided column, which still takes the element walk.
func packCases(b *testing.B) []packCase {
	col, err := Vector(1024, 1, 2, TypeFloat64)
	if err != nil {
		b.Fatal(err)
	}
	return []packCase{
		{"byte-1KiB", TypeByte, 1 << 10},
		{"float64-16KiB", TypeFloat64, 2 << 10},
		{"vector-strided-8KiB", col, 1},
	}
}

func BenchmarkPack(b *testing.B) {
	for _, c := range packCases(b) {
		b.Run(c.name, func(b *testing.B) {
			src := make([]byte, c.count*c.d.Extent())
			b.SetBytes(int64(c.count * c.d.Size()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.d.Pack(src, c.count); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkUnpack(b *testing.B) {
	for _, c := range packCases(b) {
		b.Run(c.name, func(b *testing.B) {
			dst := make([]byte, c.count*c.d.Extent())
			packed := make([]byte, c.count*c.d.Size())
			b.SetBytes(int64(len(packed)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.d.Unpack(packed, dst, c.count); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestTypedSliceHelpers(t *testing.T) {
	fs := []float64{1.25, -2.5, 3e100}
	if got := BytesFloat64s(Float64Bytes(fs)); got[0] != fs[0] || got[1] != fs[1] || got[2] != fs[2] {
		t.Fatalf("float64 round trip %v", got)
	}
	is := []int64{-1, 0, 1 << 62}
	if got := BytesInt64s(Int64Bytes(is)); got[0] != is[0] || got[2] != is[2] {
		t.Fatalf("int64 round trip %v", got)
	}
	cs := []complex128{1 + 2i, -3.5 - 0.25i}
	b := make([]byte, 32)
	PutComplex128s(b, cs)
	out := make([]complex128, 2)
	GetComplex128s(out, b)
	if out[0] != cs[0] || out[1] != cs[1] {
		t.Fatalf("complex round trip %v", out)
	}
}
