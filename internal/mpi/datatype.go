package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// PrimKind enumerates primitive datatypes.
type PrimKind uint8

// Primitive kinds.
const (
	KByte PrimKind = iota
	KInt64
	KFloat64
	KComplex128
)

// Size returns the packed size in bytes of the primitive.
func (k PrimKind) Size() int {
	switch k {
	case KByte:
		return 1
	case KInt64, KFloat64:
		return 8
	case KComplex128:
		return 16
	default:
		panic(fmt.Sprintf("mpi: unknown primitive kind %d", k))
	}
}

func (k PrimKind) String() string {
	switch k {
	case KByte:
		return "byte"
	case KInt64:
		return "int64"
	case KFloat64:
		return "float64"
	case KComplex128:
		return "complex128"
	default:
		return fmt.Sprintf("prim(%d)", uint8(k))
	}
}

type typeKind uint8

const (
	tPrim typeKind = iota
	tContiguous
	tVector
	tIndexed
	tStruct
)

// Datatype describes the layout of a message element over a byte buffer,
// mirroring MPI derived datatypes. Datatypes form a hierarchy: constructors
// take base types, and the checkpoint layer records this hierarchy in its
// handle table so types can be reconstructed on recovery (paper Section 4.2).
//
// Size is the number of packed bytes one element contributes to a message;
// Extent is the number of buffer bytes one element spans (stride between
// consecutive elements of this type in a buffer).
type Datatype struct {
	kind   typeKind
	prim   PrimKind
	base   *Datatype
	count  int // contiguous, vector
	blkLen int // vector
	stride int // vector, in elements of base

	blockLens []int // indexed (elements of base), struct (elements of child)
	displs    []int // indexed: element displs; struct: byte displs
	children  []*Datatype

	size   int
	extent int
	// dense: one element's walk visits buffer bytes [0, size) in order and
	// extent == size, so count elements pack and unpack as one copy.
	dense bool
}

// Predefined primitive datatypes.
var (
	TypeByte       = &Datatype{kind: tPrim, prim: KByte, size: 1, extent: 1, dense: true}
	TypeInt64      = &Datatype{kind: tPrim, prim: KInt64, size: 8, extent: 8, dense: true}
	TypeFloat64    = &Datatype{kind: tPrim, prim: KFloat64, size: 8, extent: 8, dense: true}
	TypeComplex128 = &Datatype{kind: tPrim, prim: KComplex128, size: 16, extent: 16, dense: true}
)

// Size returns the packed byte size of one element.
func (d *Datatype) Size() int { return d.size }

// Extent returns the buffer span in bytes of one element.
func (d *Datatype) Extent() int { return d.extent }

// IsPrimitive reports whether the type is one of the predefined primitives,
// and returns its kind.
func (d *Datatype) IsPrimitive() (PrimKind, bool) {
	if d.kind == tPrim {
		return d.prim, true
	}
	return 0, false
}

// Contiguous is equivalent to count consecutive elements of base.
func Contiguous(count int, base *Datatype) (*Datatype, error) {
	if count < 0 || base == nil {
		return nil, fmt.Errorf("%w: contiguous(count=%d)", ErrInvalid, count)
	}
	return &Datatype{
		kind:   tContiguous,
		base:   base,
		count:  count,
		size:   count * base.size,
		extent: count * base.extent,
		dense:  base.dense,
	}, nil
}

// Vector is count blocks of blockLen base elements, with consecutive blocks
// starting stride base-elements apart.
func Vector(count, blockLen, stride int, base *Datatype) (*Datatype, error) {
	if count < 0 || blockLen < 0 || base == nil {
		return nil, fmt.Errorf("%w: vector(count=%d, blockLen=%d)", ErrInvalid, count, blockLen)
	}
	if count > 0 && stride < blockLen {
		return nil, fmt.Errorf("%w: vector stride %d < blockLen %d would overlap", ErrInvalid, stride, blockLen)
	}
	ext := 0
	if count > 0 {
		ext = ((count-1)*stride + blockLen) * base.extent
	}
	return &Datatype{
		kind:   tVector,
		base:   base,
		count:  count,
		blkLen: blockLen,
		stride: stride,
		size:   count * blockLen * base.size,
		extent: ext,
		dense:  base.dense && (count <= 1 || stride == blockLen),
	}, nil
}

// Indexed is blocks of base elements at arbitrary element displacements.
func Indexed(blockLens, displs []int, base *Datatype) (*Datatype, error) {
	if len(blockLens) != len(displs) || base == nil {
		return nil, fmt.Errorf("%w: indexed lengths mismatch (%d vs %d)", ErrInvalid, len(blockLens), len(displs))
	}
	size, ext := 0, 0
	dense := base.dense
	for i := range blockLens {
		if blockLens[i] < 0 || displs[i] < 0 {
			return nil, fmt.Errorf("%w: indexed negative block/displacement", ErrInvalid)
		}
		dense = dense && displs[i]*base.size == size
		size += blockLens[i] * base.size
		if end := (displs[i] + blockLens[i]) * base.extent; end > ext {
			ext = end
		}
	}
	return &Datatype{
		kind:      tIndexed,
		base:      base,
		blockLens: append([]int(nil), blockLens...),
		displs:    append([]int(nil), displs...),
		size:      size,
		extent:    ext,
		dense:     dense,
	}, nil
}

// Struct combines blocks of differing child types at byte displacements.
func Struct(blockLens, byteDispls []int, types []*Datatype) (*Datatype, error) {
	if len(blockLens) != len(byteDispls) || len(blockLens) != len(types) {
		return nil, fmt.Errorf("%w: struct lengths mismatch", ErrInvalid)
	}
	size, ext := 0, 0
	dense := true
	for i := range blockLens {
		if blockLens[i] < 0 || byteDispls[i] < 0 || types[i] == nil {
			return nil, fmt.Errorf("%w: struct negative block/displacement or nil type", ErrInvalid)
		}
		dense = dense && types[i].dense && byteDispls[i] == size
		size += blockLens[i] * types[i].size
		if end := byteDispls[i] + blockLens[i]*types[i].extent; end > ext {
			ext = end
		}
	}
	return &Datatype{
		kind:      tStruct,
		blockLens: append([]int(nil), blockLens...),
		displs:    append([]int(nil), byteDispls...),
		children:  append([]*Datatype(nil), types...),
		size:      size,
		extent:    ext,
		dense:     dense,
	}, nil
}

// Pack serializes count elements laid out per d in src into a contiguous
// packed buffer and returns it. The traversal is the recursive walk the
// paper describes for logging non-contiguous message payloads; a dense
// type's elements already lie packed in src, so they are copied at once.
// The result is always a fresh buffer: sends are eager, so the caller may
// reuse src as soon as Send returns while the receiver still holds the
// packed bytes.
func (d *Datatype) Pack(src []byte, count int) ([]byte, error) {
	return d.AppendPacked(nil, src, count)
}

// AppendPacked appends the packed form of count elements of src to dst, as
// Pack does, so a caller can pack a message behind a header of its own in
// one buffer. A nil dst gets a fresh buffer of exactly the packed size.
func (d *Datatype) AppendPacked(dst, src []byte, count int) ([]byte, error) {
	if count < 0 {
		return nil, fmt.Errorf("%w: pack count %d", ErrInvalid, count)
	}
	need := d.bufferSpan(count)
	if need > len(src) {
		return nil, fmt.Errorf("%w: pack needs %d bytes, buffer has %d", ErrInvalid, need, len(src))
	}
	if dst == nil {
		dst = make([]byte, 0, count*d.size)
	}
	if d.dense {
		return append(dst, src[:need]...), nil
	}
	for i := 0; i < count; i++ {
		dst = d.packOne(dst, src[i*d.extent:])
	}
	return dst, nil
}

// bufferSpan returns the bytes of buffer that count elements span.
func (d *Datatype) bufferSpan(count int) int {
	if count == 0 {
		return 0
	}
	return (count-1)*d.extent + d.extent // tight span equals count*extent here
}

func (d *Datatype) packOne(dst []byte, src []byte) []byte {
	switch d.kind {
	case tPrim:
		return append(dst, src[:d.size]...)
	case tContiguous:
		for i := 0; i < d.count; i++ {
			dst = d.base.packOne(dst, src[i*d.base.extent:])
		}
		return dst
	case tVector:
		for b := 0; b < d.count; b++ {
			off := b * d.stride * d.base.extent
			for e := 0; e < d.blkLen; e++ {
				dst = d.base.packOne(dst, src[off+e*d.base.extent:])
			}
		}
		return dst
	case tIndexed:
		for i := range d.blockLens {
			off := d.displs[i] * d.base.extent
			for e := 0; e < d.blockLens[i]; e++ {
				dst = d.base.packOne(dst, src[off+e*d.base.extent:])
			}
		}
		return dst
	case tStruct:
		for i := range d.children {
			ch := d.children[i]
			off := d.displs[i]
			for e := 0; e < d.blockLens[i]; e++ {
				dst = ch.packOne(dst, src[off+e*ch.extent:])
			}
		}
		return dst
	default:
		panic("mpi: unknown datatype kind")
	}
}

// Unpack deserializes count elements from packed data into dst laid out per
// d. It returns the number of packed bytes consumed.
func (d *Datatype) Unpack(packed []byte, dst []byte, count int) (int, error) {
	if count < 0 {
		return 0, fmt.Errorf("%w: unpack count %d", ErrInvalid, count)
	}
	if count*d.size > len(packed) {
		return 0, fmt.Errorf("%w: unpack needs %d packed bytes, have %d", ErrTruncate, count*d.size, len(packed))
	}
	if d.bufferSpan(count) > len(dst) {
		return 0, fmt.Errorf("%w: unpack needs %d buffer bytes, have %d", ErrInvalid, d.bufferSpan(count), len(dst))
	}
	if d.dense {
		return copy(dst, packed[:count*d.size]), nil
	}
	pos := 0
	for i := 0; i < count; i++ {
		pos = d.unpackOne(packed, pos, dst[i*d.extent:])
	}
	return pos, nil
}

func (d *Datatype) unpackOne(packed []byte, pos int, dst []byte) int {
	switch d.kind {
	case tPrim:
		copy(dst[:d.size], packed[pos:pos+d.size])
		return pos + d.size
	case tContiguous:
		for i := 0; i < d.count; i++ {
			pos = d.base.unpackOne(packed, pos, dst[i*d.base.extent:])
		}
		return pos
	case tVector:
		for b := 0; b < d.count; b++ {
			off := b * d.stride * d.base.extent
			for e := 0; e < d.blkLen; e++ {
				pos = d.base.unpackOne(packed, pos, dst[off+e*d.base.extent:])
			}
		}
		return pos
	case tIndexed:
		for i := range d.blockLens {
			off := d.displs[i] * d.base.extent
			for e := 0; e < d.blockLens[i]; e++ {
				pos = d.base.unpackOne(packed, pos, dst[off+e*d.base.extent:])
			}
		}
		return pos
	case tStruct:
		for i := range d.children {
			ch := d.children[i]
			off := d.displs[i]
			for e := 0; e < d.blockLens[i]; e++ {
				pos = ch.unpackOne(packed, pos, dst[off+e*ch.extent:])
			}
		}
		return pos
	default:
		panic("mpi: unknown datatype kind")
	}
}

// Conversion helpers between typed slices and the byte buffers the library
// exchanges. MPI applications pass typed buffers; here the packing boundary
// is explicit. All encodings are little-endian IEEE-754.

// PutFloat64s encodes vs into dst, which must hold 8*len(vs) bytes.
func PutFloat64s(dst []byte, vs []float64) {
	for i, v := range vs {
		binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(v))
	}
}

// GetFloat64s decodes len(dst) float64s from src.
func GetFloat64s(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
	}
}

// Float64Bytes returns a fresh byte encoding of vs.
func Float64Bytes(vs []float64) []byte {
	b := make([]byte, 8*len(vs))
	PutFloat64s(b, vs)
	return b
}

// BytesFloat64s decodes all float64s in b.
func BytesFloat64s(b []byte) []float64 {
	vs := make([]float64, len(b)/8)
	GetFloat64s(vs, b)
	return vs
}

// PutInt64s encodes vs into dst, which must hold 8*len(vs) bytes.
func PutInt64s(dst []byte, vs []int64) {
	for i, v := range vs {
		binary.LittleEndian.PutUint64(dst[i*8:], uint64(v))
	}
}

// GetInt64s decodes len(dst) int64s from src.
func GetInt64s(dst []int64, src []byte) {
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(src[i*8:]))
	}
}

// Int64Bytes returns a fresh byte encoding of vs.
func Int64Bytes(vs []int64) []byte {
	b := make([]byte, 8*len(vs))
	PutInt64s(b, vs)
	return b
}

// BytesInt64s decodes all int64s in b.
func BytesInt64s(b []byte) []int64 {
	vs := make([]int64, len(b)/8)
	GetInt64s(vs, b)
	return vs
}

// PutComplex128s encodes vs into dst, which must hold 16*len(vs) bytes.
func PutComplex128s(dst []byte, vs []complex128) {
	for i, v := range vs {
		binary.LittleEndian.PutUint64(dst[i*16:], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(dst[i*16+8:], math.Float64bits(imag(v)))
	}
}

// GetComplex128s decodes len(dst) complex128s from src.
func GetComplex128s(dst []complex128, src []byte) {
	for i := range dst {
		re := math.Float64frombits(binary.LittleEndian.Uint64(src[i*16:]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(src[i*16+8:]))
		dst[i] = complex(re, im)
	}
}
