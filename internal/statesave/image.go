package statesave

import (
	"encoding/binary"
	"fmt"
	"io"
	"unsafe"

	"c3/internal/wire"
)

// littleEndian reports whether this host holds a uint64 in the image's
// byte order, so that a []float64 or []int64 is its own encoded body.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// memory returns a bulk cell's element count and, as a view of the cell's
// own storage, the bytes its body carries after that count: a Bytes cell's
// data, and a Float64s or Int64s cell's elements on a little-endian host.
// ok is false for every other section.
func memory(s Section) (count int, mem []byte, ok bool) {
	if c, isBytes := s.(*Bytes); isBytes {
		return len(c.data), c.data, true
	}
	return inPlace(s)
}

// inPlace is memory for the cells that restore in place, the Float64s and
// Int64s cells: a body whose count is the registered length is read
// straight into mem. A Bytes cell is not one of them; its Load replaces
// the slice.
func inPlace(s Section) (count int, mem []byte, ok bool) {
	switch c := s.(type) {
	case *Float64s:
		return len(c.data), bytesOf(c.data), littleEndian
	case *Int64s:
		return len(c.data), bytesOf(c.data), littleEndian
	}
	return 0, nil, false
}

// bytesOf views a slice of 8-byte numbers as its bytes, in host order.
func bytesOf[T float64 | int64](vs []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), 8*len(vs))
}

// Load restores sections by name from a Save image. Sections present in the
// image but not registered are an error (the program shape diverged);
// registered sections missing from the image are left untouched. Each
// section decodes from a view of data, straight into its own storage.
func (g *Registry) Load(data []byte) error {
	return g.load(&image{mem: data, size: len(data)}, nil)
}

// LoadFrom is Load of the size-byte image that r holds, such as a
// checkpoint's section file, decoded by the same walk: a Float64s or
// Int64s body of the registered length is read from r straight into the
// registered slice, and the framing and every other body through a small
// read-ahead buffer. As with Load, a count the image cannot hold fails
// before anything is allocated or written; only a read error of r itself,
// once the framing has checked out, can leave a slice partly read. With
// load non-nil only the sections it admits by name are restored: the
// others are skipped unread, registered or not.
func (g *Registry) LoadFrom(r io.ReaderAt, size int64, load func(name string) bool) error {
	if size < 0 || int64(int(size)) != size {
		return fmt.Errorf("statesave: image size %d out of range", size)
	}
	return g.load(&image{ra: r, size: int(size)}, load)
}

func (g *Registry) load(img *image, load func(name string) bool) error {
	n := img.count(8) // minimum bytes per serialized section
	for i := 0; i < n; i++ {
		name := img.string()
		size := img.length()
		if img.err != nil {
			return fmt.Errorf("statesave: corrupt image: %w", img.err)
		}
		if load != nil && !load(name) {
			img.off += size
			continue
		}
		s, ok := g.byName[name]
		if !ok {
			return fmt.Errorf("statesave: image has unregistered section %q", name)
		}
		if err := img.section(s, size); err != nil {
			return fmt.Errorf("statesave: section %q: %w", name, err)
		}
	}
	return img.err
}

// readAhead is how much of an image read from an io.ReaderAt one read
// fetches for the framing and the small bodies.
const readAhead = 4 << 10

// image is the Save image a load decodes, with a sticky error: either the
// bytes themselves (mem), which it hands out as views, or an io.ReaderAt
// of size bytes, whose small reads it serves from a read-ahead window.
type image struct {
	mem   []byte
	ra    io.ReaderAt
	size  int
	off   int    // the next unread byte
	win   []byte // ra's bytes [winAt, winAt+len(win))
	winAt int
	err   error
}

func (m *image) short(n int) {
	if m.err == nil {
		m.err = fmt.Errorf("%w: %d bytes with %d remaining at offset %d", wire.ErrShortBuffer, n, m.size-m.off, m.off)
	}
}

// take consumes the next n bytes and returns them, valid until the next
// take: a view of mem, a slice of the window, or for a long read from ra
// a buffer of its own.
func (m *image) take(n int) []byte {
	if m.err != nil {
		return nil
	}
	if n < 0 || n > m.size-m.off {
		m.short(n)
		return nil
	}
	at := m.off
	m.off += n
	switch {
	case m.ra == nil:
		return m.mem[at : at+n : at+n]
	case at >= m.winAt && at+n <= m.winAt+len(m.win):
		return m.win[at-m.winAt : at-m.winAt+n]
	case n > readAhead:
		b := make([]byte, n)
		m.readAt(b, at)
		return b
	}
	if m.win == nil {
		m.win = make([]byte, 0, readAhead)
	}
	m.win, m.winAt = m.win[:min(readAhead, m.size-at)], at
	m.readAt(m.win, at)
	return m.win[:n]
}

// readInto consumes len(dst) bytes into dst.
func (m *image) readInto(dst []byte) {
	if m.err != nil {
		return
	}
	if len(dst) > m.size-m.off {
		m.short(len(dst))
		return
	}
	if m.ra == nil {
		copy(dst, m.mem[m.off:])
	} else {
		m.readAt(dst, m.off)
	}
	m.off += len(dst)
}

func (m *image) readAt(b []byte, at int) {
	if n, err := m.ra.ReadAt(b, int64(at)); n < len(b) && m.err == nil {
		m.err = fmt.Errorf("statesave: read %d bytes at offset %d: %w", len(b), at, err)
	}
}

func (m *image) u32() uint32 {
	b := m.take(4)
	if m.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// count is wire.Reader.Count: a u32 count of elements of at least elemSize
// bytes each, refused unless the bytes left can hold it.
func (m *image) count(elemSize int) int {
	n := int(int32(m.u32()))
	if m.err == nil && (n < 0 || n > (m.size-m.off)/elemSize) {
		m.short(n * elemSize)
		return 0
	}
	return n
}

// length is a u32 byte length, refused unless the bytes left hold it.
func (m *image) length() int {
	n := int(m.u32())
	if m.err == nil && n > m.size-m.off {
		m.err = fmt.Errorf("%w: %d bytes with %d remaining", wire.ErrTooLong, n, m.size-m.off)
		return 0
	}
	return n
}

func (m *image) string() string { return string(m.take(m.length())) }

// section decodes the next size bytes, one section's body, into s. A
// bulk cell's body, a count and then its bytes, is read straight into
// memory once the count is checked against the body's size: a Float64s or
// Int64s cell's own slice when the count is its registered length, and a
// new slice for a Bytes cell, whose Load would replace its slice anyway.
// Any other body decodes through the section's Load.
func (m *image) section(s Section, size int) error {
	if _, _, bulk := memory(s); bulk && size >= 4 {
		at := m.off
		n := int(m.u32())
		if c, isBytes := s.(*Bytes); isBytes && n <= size-4 {
			data := make([]byte, n)
			if m.readInto(data); m.err == nil {
				c.data = data
			}
			m.off = at + size
			return m.err
		}
		if count, mem, ok := inPlace(s); ok && n == count && 4+len(mem) <= size {
			m.readInto(mem)
			m.off = at + size
			return m.err
		}
		m.off = at // decode it the general way
	}
	body := m.take(size)
	if m.err != nil {
		return m.err
	}
	return s.Load(wire.NewReader(body))
}
