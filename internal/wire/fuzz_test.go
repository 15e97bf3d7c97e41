package wire

import (
	"bytes"
	"testing"
)

// FuzzReader drives every decoder over arbitrary input. The invariants:
// no panic, no allocation larger than the input could justify, the sticky
// error machinery always reports truncation instead of producing values
// past the end of input, and the in-place decoders never write into a
// destination they do not return.
func FuzzReader(f *testing.F) {
	// Seed with a well-formed image touching every encoder.
	w := NewWriter(256)
	w.U8(7)
	w.Bool(true)
	w.U32(0xdeadbeef)
	w.U64(1 << 40)
	w.I64(-12345)
	w.Int(67890)
	w.F64(3.14159)
	w.Bytes32([]byte("payload"))
	w.String("section-name")
	w.I64s([]int64{-1, 0, 1})
	w.U64s([]uint64{2, 4, 8})
	w.Ints([]int{-9, 9})
	w.F64s([]float64{0.5, -0.5})
	f.Add(w.Bytes())
	// Runs the in-place decoders meet first: one of the length they are
	// given, one not.
	runs := NewWriter(64)
	runs.F64s([]float64{1, 2, 3})
	runs.I64s([]int64{4})
	f.Add(runs.Bytes())
	// A hostile length prefix: claims 2^31-1 elements.
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		_ = r.U8()
		_ = r.Bool()
		_ = r.U32()
		_ = r.U64()
		_ = r.F64()
		b := r.Bytes32()
		if len(b) > len(data) {
			t.Fatalf("Bytes32 produced %d bytes from %d input bytes", len(b), len(data))
		}
		s := r.String()
		if len(s) > len(data) {
			t.Fatalf("String produced %d bytes from %d input bytes", len(s), len(data))
		}
		for _, n := range []int{
			len(r.I64s()), len(r.U64s()), len(r.Ints()), len(r.F64s()),
		} {
			if n*8 > len(data) {
				t.Fatalf("slice decoder produced %d elements from %d input bytes", n, len(data))
			}
		}
		if r.Err() == nil && r.Remaining() < 0 {
			t.Fatal("negative remaining without error")
		}

		// The in-place decoders, given a dst of the wrong length: either they
		// fail and leave dst alone, or they return a fresh slice the input
		// justifies and still leave dst alone.
		for _, wrong := range []int{0, 1, 3} {
			r := NewReader(data)
			fdst := make([]float64, wrong)
			idst := make([]int64, wrong)
			for i := range fdst {
				fdst[i], idst[i] = -1, -1
			}
			fs := r.F64sInto(fdst)
			fused := r.Err() == nil && len(fs) == wrong
			is := r.I64sInto(idst)
			iused := r.Err() == nil && len(is) == wrong
			for _, got := range []int{len(fs), len(is)} {
				if got*8 > len(data) {
					t.Fatalf("Into decoder produced %d elements from %d input bytes", got, len(data))
				}
			}
			if !fused {
				for i := range fdst {
					if fdst[i] != -1 {
						t.Fatalf("F64sInto wrote into a dst of length %d it did not return", wrong)
					}
				}
			}
			if !iused {
				for i := range idst {
					if idst[i] != -1 {
						t.Fatalf("I64sInto wrote into a dst of length %d it did not return", wrong)
					}
				}
			}
		}

		// Round-trip property on the tail: whatever Bytes32 decodes must
		// re-encode identically.
		r2 := NewReader(data)
		if payload := r2.Bytes32(); r2.Err() == nil {
			w := NewWriter(len(payload) + 4)
			w.Bytes32(payload)
			r3 := NewReader(w.Bytes())
			if !bytes.Equal(r3.Bytes32(), payload) || r3.Err() != nil {
				t.Fatal("Bytes32 round-trip mismatch")
			}
		}
	})
}
