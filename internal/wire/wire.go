// Package wire implements the binary encoding used for checkpoint files,
// message logs and control messages.
//
// The format is deliberately simple and deterministic: fixed-width
// little-endian integers, IEEE-754 floats, and length-prefixed byte strings.
// A Writer accumulates into a buffer and carries a sticky error; a Reader
// decodes from a byte slice and likewise carries a sticky error, so call
// sites can chain operations and check the error once (the errWriter idiom).
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrShortBuffer is reported when a Reader runs out of input mid-value.
var ErrShortBuffer = errors.New("wire: short buffer")

// ErrTooLong is reported when a length prefix exceeds MaxLen.
var ErrTooLong = errors.New("wire: length prefix too large")

// MaxLen bounds any single length-prefixed value. It exists to turn file
// corruption into an error instead of an enormous allocation.
const MaxLen = 1 << 31

// Writer encodes values into an internal buffer.
// The zero value is ready to use.
type Writer struct {
	buf []byte
	err error
}

// NewWriter returns a Writer with the given initial capacity.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Err returns the first error encountered, if any.
func (w *Writer) Err() error { return w.err }

// Bytes returns the encoded bytes. The slice aliases the Writer's buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes encoded so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset truncates the Writer for reuse, keeping the allocation.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.err = nil
}

// U8 appends a single byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 appends a fixed-width 32-bit unsigned integer.
func (w *Writer) U32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// U64 appends a fixed-width 64-bit unsigned integer.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I64 appends a 64-bit signed integer.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as a 64-bit signed integer.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 appends a float64 in IEEE-754 bit representation.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes32 appends a length-prefixed byte string.
func (w *Writer) Bytes32(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Raw appends b as it is, with no length prefix: the rest of a value
// whose prefix was written already.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// PatchU32 overwrites the 32-bit value at offset at, which an earlier U32
// wrote: a length prefix reserved before the bytes it counts were known.
func (w *Writer) PatchU32(at int, v uint32) {
	binary.LittleEndian.PutUint32(w.buf[at:at+4], v)
}

// run appends the u32 count n and reserves the 8n bytes of its elements in
// one step, returning them for the caller to fill.
func (w *Writer) run(n int) []byte {
	w.buf = slices.Grow(w.buf, 4+8*n)
	w.U32(uint32(n))
	at := len(w.buf)
	w.buf = w.buf[:at+8*n]
	return w.buf[at:]
}

// The slice encoders fill the reserved run with no per-element append and
// no bounds checks: the loop's own length test is the only one.

// I64s appends a length-prefixed slice of 64-bit signed integers.
func (w *Writer) I64s(vs []int64) {
	b := w.run(len(vs))
	for _, v := range vs {
		if len(b) < 8 {
			return
		}
		binary.LittleEndian.PutUint64(b, uint64(v))
		b = b[8:]
	}
}

// U64s appends a length-prefixed slice of 64-bit unsigned integers.
func (w *Writer) U64s(vs []uint64) {
	b := w.run(len(vs))
	for _, v := range vs {
		if len(b) < 8 {
			return
		}
		binary.LittleEndian.PutUint64(b, v)
		b = b[8:]
	}
}

// Ints appends a length-prefixed slice of ints.
func (w *Writer) Ints(vs []int) {
	b := w.run(len(vs))
	for _, v := range vs {
		if len(b) < 8 {
			return
		}
		binary.LittleEndian.PutUint64(b, uint64(int64(v)))
		b = b[8:]
	}
}

// F64s appends a length-prefixed slice of float64s.
func (w *Writer) F64s(vs []float64) {
	b := w.run(len(vs))
	for _, v := range vs {
		if len(b) < 8 {
			return
		}
		binary.LittleEndian.PutUint64(b, math.Float64bits(v))
		b = b[8:]
	}
}

// Reader decodes values from a byte slice.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader returns a Reader over b. The Reader does not copy b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decoding error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w at offset %d", ErrShortBuffer, r.pos)
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.pos+n > len(r.buf) {
		r.fail()
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// U8 decodes a single byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool decodes a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U32 decodes a fixed-width 32-bit unsigned integer.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 decodes a fixed-width 64-bit unsigned integer.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 decodes a 64-bit signed integer.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int decodes an int stored as a 64-bit signed integer.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 decodes a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count decodes a u32 element count for elements occupying at least
// elemSize bytes each and clamps it against the remaining input: a count
// that could not possibly be satisfied by the bytes left fails with
// ErrShortBuffer *before* any allocation, so a truncated or corrupt frame
// off a real socket can never trigger a multi-gigabyte make().
func (r *Reader) Count(elemSize int) int {
	n := int(int32(r.U32()))
	if r.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if n < 0 || n > r.Remaining()/elemSize {
		if r.err == nil {
			r.err = fmt.Errorf("%w: %d elements of %d+ bytes with %d remaining at offset %d",
				ErrShortBuffer, n, elemSize, r.Remaining(), r.pos)
		}
		return 0
	}
	return n
}

func (r *Reader) length() int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n > MaxLen || n > r.Remaining() {
		if r.err == nil {
			r.err = fmt.Errorf("%w: %d bytes with %d remaining", ErrTooLong, n, r.Remaining())
		}
		return 0
	}
	return n
}

// Bytes32 decodes a length-prefixed byte string. The result is a copy.
func (r *Reader) Bytes32() []byte { return bytes.Clone(r.View32()) }

// View32 decodes a length-prefixed byte string without copying it: the
// result aliases the Reader's input (capacity clipped to its length) and
// keeps that whole buffer reachable. For callers that own the input and
// would otherwise copy a bulk payload only to drop the original.
func (r *Reader) View32() []byte {
	n := r.length()
	if r.err != nil {
		return nil
	}
	b := r.take(n)
	if b == nil {
		return nil
	}
	return b[:n:n]
}

// String decodes a length-prefixed string.
func (r *Reader) String() string {
	n := r.length()
	if r.err != nil {
		return ""
	}
	b := r.take(n)
	return string(b)
}

// The slice decoders take a whole run in one step — Count has already
// checked that it is there — and decode it with no per-element error or
// bounds check. An error leaves the destination untouched: nothing is
// decoded until the whole run is known to be present.

// I64s decodes a length-prefixed slice of 64-bit signed integers.
func (r *Reader) I64s() []int64 { return r.I64sInto(nil) }

// I64sInto decodes a length-prefixed slice of 64-bit signed integers into
// dst when the encoded length equals len(dst), and returns dst. Otherwise
// it returns a new slice of the encoded length (nil when that is zero) and
// leaves dst alone, as it does on error.
func (r *Reader) I64sInto(dst []int64) []int64 {
	n := r.Count(8)
	if r.err != nil {
		return nil
	}
	if n != len(dst) {
		if n == 0 {
			return nil
		}
		dst = make([]int64, n)
	}
	b := r.take(8 * n)
	for i := range dst {
		if len(b) < 8 {
			break
		}
		dst[i] = int64(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	return dst
}

// U64s decodes a length-prefixed slice of 64-bit unsigned integers.
func (r *Reader) U64s() []uint64 {
	n := r.Count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	vs := make([]uint64, n)
	b := r.take(8 * n)
	for i := range vs {
		if len(b) < 8 {
			break
		}
		vs[i] = binary.LittleEndian.Uint64(b)
		b = b[8:]
	}
	return vs
}

// Ints decodes a length-prefixed slice of ints.
func (r *Reader) Ints() []int {
	n := r.Count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	vs := make([]int, n)
	b := r.take(8 * n)
	for i := range vs {
		if len(b) < 8 {
			break
		}
		vs[i] = int(int64(binary.LittleEndian.Uint64(b)))
		b = b[8:]
	}
	return vs
}

// F64s decodes a length-prefixed slice of float64s.
func (r *Reader) F64s() []float64 { return r.F64sInto(nil) }

// F64sInto decodes a length-prefixed slice of float64s into dst when the
// encoded length equals len(dst), and returns dst. Otherwise it returns a
// new slice of the encoded length (nil when that is zero) and leaves dst
// alone, as it does on error.
func (r *Reader) F64sInto(dst []float64) []float64 {
	n := r.Count(8)
	if r.err != nil {
		return nil
	}
	if n != len(dst) {
		if n == 0 {
			return nil
		}
		dst = make([]float64, n)
	}
	b := r.take(8 * n)
	for i := range dst {
		if len(b) < 8 {
			break
		}
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	return dst
}
