package statesave

import (
	"bytes"
	"fmt"

	"c3/internal/wire"
)

// Heap is a checkpointable allocator for bulk application data. It is the Go
// analogue of the C3 memory manager: C3 provides its own allocator so heap
// objects can be enumerated at checkpoint time (saving only live objects)
// and restored to their original addresses on restart. Go forbids address
// control, so restoration is by allocation name instead: on restart the
// application re-executes its allocations, and each Alloc with a name that
// has restored contents pending receives those contents.
//
// The heap tracks three sizes used by the checkpoint-size experiments
// (paper Table 1):
//
//   - LiveBytes: bytes in currently-live blocks — what C3 saves;
//   - HighWater: the maximum total ever allocated simultaneously — the
//     process-image floor a system-level checkpointer like Condor saves,
//     because freed memory is not returned to the OS;
//   - FreedBytes: cumulative bytes freed.
type Heap struct {
	blocks    []*Block // live, in allocation order
	byName    map[string]*Block
	pending   map[string][]byte // restored contents not yet claimed by Alloc
	live      int
	highWater int
	freed     int64
}

// Block is one heap allocation.
type Block struct {
	name string
	data []byte
}

// Name returns the allocation name.
func (b *Block) Name() string { return b.name }

// Data returns the block's bytes.
func (b *Block) Data() []byte { return b.data }

// NewHeap returns an empty heap.
func NewHeap() *Heap {
	return &Heap{
		byName:  make(map[string]*Block),
		pending: make(map[string][]byte),
	}
}

// Alloc creates a block of the given size. If restored contents are pending
// under this name (a Restore ran before the allocation was re-executed),
// they are installed, so restart code can allocate-then-Restore or
// Restore-then-allocate in either order. Allocating an existing live name
// panics: allocation names identify objects across restarts and must be
// unique, like addresses.
func (h *Heap) Alloc(name string, size int) *Block {
	if _, dup := h.byName[name]; dup {
		panic(fmt.Sprintf("statesave: heap block %q already allocated", name))
	}
	b := &Block{name: name}
	if restored, ok := h.pending[name]; ok {
		b.data = restored // the heap's own copy, made by Load
		delete(h.pending, name)
	} else {
		b.data = make([]byte, size)
	}
	h.blocks = append(h.blocks, b)
	h.byName[name] = b
	h.live += len(b.data)
	if h.live > h.highWater {
		h.highWater = h.live
	}
	return b
}

// Lookup returns the live block with the given name.
func (h *Heap) Lookup(name string) (*Block, bool) {
	b, ok := h.byName[name]
	return b, ok
}

// Free releases a block. Its bytes stop counting as live (C3 does not save
// them) but remain in the high-water mark (Condor would).
func (h *Heap) Free(b *Block) {
	if h.byName[b.name] != b {
		return
	}
	delete(h.byName, b.name)
	for i, blk := range h.blocks {
		if blk == b {
			h.blocks = append(h.blocks[:i], h.blocks[i+1:]...)
			break
		}
	}
	h.live -= len(b.data)
	h.freed += int64(len(b.data))
}

// LiveBytes returns the bytes in live blocks.
func (h *Heap) LiveBytes() int { return h.live }

// HighWater returns the peak simultaneous allocation.
func (h *Heap) HighWater() int { return h.highWater }

// FreedBytes returns the cumulative bytes freed.
func (h *Heap) FreedBytes() int64 { return h.freed }

// Blocks returns the live blocks in allocation order.
func (h *Heap) Blocks() []*Block { return append([]*Block(nil), h.blocks...) }

// Save serializes the live blocks.
func (h *Heap) Save() []byte {
	w := wire.NewWriter(64 + h.live)
	h.save(w)
	return w.Bytes()
}

func (h *Heap) save(w *wire.Writer) {
	w.U32(uint32(len(h.blocks)))
	for _, b := range h.blocks {
		w.String(b.name)
		w.Bytes32(b.data)
	}
	w.Int(h.highWater)
	w.I64(h.freed)
}

// Load restores blocks from a Save image. Contents land in live blocks with
// matching names immediately; names not yet allocated are parked in the
// pending table for the next Alloc. The heap keeps no reference to data.
func (h *Heap) Load(data []byte) error {
	r := wire.NewReader(data)
	n := r.Count(8) // minimum bytes per serialized block
	for i := 0; i < n; i++ {
		name := r.String()
		contents := r.View32()
		if r.Err() != nil {
			return fmt.Errorf("statesave: corrupt heap image: %w", r.Err())
		}
		if b, ok := h.byName[name]; ok {
			if len(contents) == len(b.data) {
				copy(b.data, contents)
			} else {
				h.live += len(contents) - len(b.data)
				b.data = bytes.Clone(contents)
			}
		} else {
			h.pending[name] = bytes.Clone(contents)
		}
	}
	h.highWater = r.Int()
	h.freed = r.I64()
	if h.live > h.highWater {
		h.highWater = h.live
	}
	return r.Err()
}

// Section adapts the heap into a registry section named "__heap". Its
// body is the Save image as a length-prefixed byte string, written into
// and loaded from the registry image with no intermediate copy.
func (h *Heap) Section() Section {
	return NewCustom("__heap",
		h.LiveBytes,
		func(w *wire.Writer) { bytes32(w, h.save) },
		func(r *wire.Reader) error {
			img := r.View32()
			if r.Err() != nil {
				return r.Err()
			}
			return h.Load(img)
		},
	)
}
