package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The reference encoders: one append per element, the slice codecs'
// original form. The bulk codecs must produce exactly these bytes.

func refU64s(b []byte, vs []uint64) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(vs)))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

func asU64s[T any](vs []T, conv func(T) uint64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = conv(v)
	}
	return out
}

func TestSliceEncodersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{-1, 0, 1, 7, 1000} { // -1 is a nil slice
		var fs []float64
		var is []int64
		var us []uint64
		var ints []int
		if n >= 0 {
			fs, is, us, ints = make([]float64, n), make([]int64, n), make([]uint64, n), make([]int, n)
		}
		for i := 0; i < n; i++ {
			fs[i] = rng.NormFloat64()
			is[i] = rng.Int63() - rng.Int63()
			us[i] = rng.Uint64()
			ints[i] = int(rng.Int63()) - int(rng.Int63())
		}
		if n > 3 {
			fs[0], fs[1], fs[2] = math.NaN(), math.Inf(-1), math.Copysign(0, -1)
		}
		// A prefix, and no spare capacity, so every encoder both appends
		// behind existing bytes and grows the buffer.
		for _, capacity := range []int{0, 1 << 16} {
			w := NewWriter(capacity)
			w.String("prefix")
			want := append([]byte(nil), w.Bytes()...)
			w.F64s(fs)
			want = refU64s(want, asU64s(fs, math.Float64bits))
			w.I64s(is)
			want = refU64s(want, asU64s(is, func(v int64) uint64 { return uint64(v) }))
			w.U64s(us)
			want = refU64s(want, us)
			w.Ints(ints)
			want = refU64s(want, asU64s(ints, func(v int) uint64 { return uint64(int64(v)) }))
			if !bytes.Equal(w.Bytes(), want) {
				t.Fatalf("n=%d cap=%d: bulk encoders differ from the per-element reference", n, capacity)
			}
		}
	}
}

func TestPatchU32(t *testing.T) {
	w := NewWriter(0)
	w.U8(9)
	at := w.Len()
	w.U32(0)
	w.String("body")
	w.PatchU32(at, 0xdeadbeef)
	r := NewReader(w.Bytes())
	if r.U8() != 9 || r.U32() != 0xdeadbeef || r.String() != "body" || r.Err() != nil {
		t.Fatalf("patched image decodes wrong: % x", w.Bytes())
	}
}

func TestIntoDecodesInPlace(t *testing.T) {
	w := NewWriter(0)
	w.F64s([]float64{1, 2, 3})
	w.I64s([]int64{-4, 5})
	img := w.Bytes()

	// Matching length: decoded into dst itself.
	fdst, idst := make([]float64, 3), make([]int64, 2)
	r := NewReader(img)
	if got := r.F64sInto(fdst); &got[0] != &fdst[0] || fdst[2] != 3 {
		t.Fatalf("F64sInto with the right length returned %v, not dst", got)
	}
	if got := r.I64sInto(idst); &got[0] != &idst[0] || idst[0] != -4 {
		t.Fatalf("I64sInto with the right length returned %v, not dst", got)
	}

	// Wrong length: a new slice, dst untouched.
	fdst, idst = []float64{9, 9}, []int64{9, 9, 9}
	r = NewReader(img)
	got := r.F64sInto(fdst)
	igot := r.I64sInto(idst)
	if len(got) != 3 || got[1] != 2 || fdst[0] != 9 || fdst[1] != 9 {
		t.Fatalf("F64sInto with a short dst: got %v, dst %v", got, fdst)
	}
	if len(igot) != 2 || igot[1] != 5 || idst[0] != 9 || r.Err() != nil {
		t.Fatalf("I64sInto with a long dst: got %v, dst %v, err %v", igot, idst, r.Err())
	}

	// Truncated run: an error, and nothing decoded into dst.
	fdst = []float64{9, 9, 9}
	r = NewReader(img[:4+8*2])
	if got := r.F64sInto(fdst); got != nil || r.Err() == nil {
		t.Fatalf("truncated run: got %v, err %v", got, r.Err())
	}
	if fdst[0] != 9 || fdst[1] != 9 {
		t.Fatalf("truncated run decoded into dst partially: %v", fdst)
	}

	// Empty runs keep a matching empty dst and return nil otherwise.
	w.Reset()
	w.F64s(nil)
	w.F64s(nil)
	r = NewReader(w.Bytes())
	if empty := make([]float64, 0, 4); cap(r.F64sInto(empty)) != 4 {
		t.Fatal("an empty run did not return the empty dst")
	}
	if got := r.F64sInto([]float64{1}); got != nil || r.Err() != nil {
		t.Fatalf("an empty run into a 1-element dst returned %v, err %v", got, r.Err())
	}
}

// The layer benchmarks: 8 MiB of float64s through each slice codec path.
const benchFloats = 8 << 20 / 8

func benchFloatData() []float64 {
	vs := make([]float64, benchFloats)
	rng := rand.New(rand.NewSource(3))
	for i := range vs {
		vs[i] = rng.NormFloat64()
	}
	return vs
}

func BenchmarkF64sWrite(b *testing.B) {
	b.Run("8MiB", func(b *testing.B) {
		vs := benchFloatData()
		w := NewWriter(8*len(vs) + 4)
		b.SetBytes(8 * int64(len(vs)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Reset()
			w.F64s(vs)
		}
	})
}

func BenchmarkF64sRead(b *testing.B) {
	b.Run("8MiB", func(b *testing.B) {
		w := NewWriter(0)
		w.F64s(benchFloatData())
		img := w.Bytes()
		b.SetBytes(benchFloats * 8)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if NewReader(img).F64s() == nil {
				b.Fatal("decode failed")
			}
		}
	})
}

func BenchmarkF64sReadInto(b *testing.B) {
	b.Run("8MiB", func(b *testing.B) {
		w := NewWriter(0)
		w.F64s(benchFloatData())
		img := w.Bytes()
		dst := make([]float64, benchFloats)
		b.SetBytes(benchFloats * 8)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := NewReader(img)
			r.F64sInto(dst)
			if r.Err() != nil {
				b.Fatal(r.Err())
			}
		}
	})
}
