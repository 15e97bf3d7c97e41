// Package statesave implements application-level state saving: the Go
// analogue of the C3 precompiler's inserted state-registration code
// (paper Section 5).
//
// In C3, a precompiler instruments a C program so that, as variables enter
// and leave scope and as heap objects are allocated and freed, a runtime
// library maintains "an up-to-date description of the process's state"; at
// a checkpoint the description is walked and the state written out. Go has
// no preprocessor and no stable addresses, so the registration is explicit:
// the application registers named cells (scalars, slices, custom sections)
// with a Registry, and allocates bulk data from a Heap. Both are walked at
// checkpoint time, and only live data is saved — the property responsible
// for C3's checkpoint-size advantage over system-level checkpointing in the
// paper's Table 1.
//
// On restart the application re-executes its prologue (re-registering the
// same cells in the same order), then Restore copies the saved contents back
// into the registered cells; execution then resumes from restored loop
// counters. This replaces C3's stack-padding and address-preserving memory
// manager, which cannot exist in Go; see DESIGN.md for the substitution
// argument.
package statesave

import (
	"fmt"
	"hash/fnv"
	"sort"

	"c3/internal/wire"
)

// Section is a named piece of application state.
type Section interface {
	// Name returns the registration name, unique within a Registry.
	Name() string
	// Save appends the section's contents. w is the whole image being
	// built, so Save must only append to it.
	Save(w *wire.Writer)
	// Load restores the section's contents. r reads a view of the image
	// the caller owns: Load must copy what it keeps and must not retain
	// the reader's bytes.
	Load(r *wire.Reader) error
	// LiveBytes is the current size of the section's live data.
	LiveBytes() int
}

// Registry holds the ordered set of registered state sections for one rank.
type Registry struct {
	sections []Section
	byName   map[string]Section
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Section)}
}

// Register adds a custom section. It panics on duplicate names — a
// duplicate registration is a program structure bug, equivalent to C3's
// precompiler emitting conflicting descriptors.
func (g *Registry) Register(s Section) {
	if _, dup := g.byName[s.Name()]; dup {
		panic(fmt.Sprintf("statesave: duplicate section %q", s.Name()))
	}
	g.sections = append(g.sections, s)
	g.byName[s.Name()] = s
}

// Unregister removes a section from the registry — the Go analogue of the
// C3 runtime pruning its state description as variables leave scope. The
// section stops appearing in snapshots; with incremental checkpointing the
// next delta no longer names it live, so recovery does not resurrect it
// from an older line of the chain. Unknown names are a no-op.
func (g *Registry) Unregister(name string) {
	if _, ok := g.byName[name]; !ok {
		return
	}
	delete(g.byName, name)
	for i, s := range g.sections {
		if s.Name() == name {
			g.sections = append(g.sections[:i], g.sections[i+1:]...)
			break
		}
	}
}

// Lookup returns the section with the given name.
func (g *Registry) Lookup(name string) (Section, bool) {
	s, ok := g.byName[name]
	return s, ok
}

// LiveBytes totals the live data across all sections.
func (g *Registry) LiveBytes() int {
	total := 0
	for _, s := range g.sections {
		total += s.LiveBytes()
	}
	return total
}

// Save serializes every registered section into one image. Each body is
// written straight into the image behind a length prefix filled in
// afterwards, so a section's bytes are encoded once and never copied.
func (g *Registry) Save() []byte {
	w := wire.NewWriter(1024 + g.LiveBytes())
	g.walk(w, nil, nil)
	return w.Bytes()
}

// SaveParts returns Save's image as parts whose concatenation is Save's
// bytes, without building the image: the framing, the small sections and
// the Custom and heap bodies are encoded into one small buffer, and every
// bulk cell's body after its count (a Bytes cell's always, a Float64s or
// Int64s cell's on a little-endian host) is a view of the registered
// memory itself. The views alias live application state, so the parts are
// valid only while the application is blocked in the pragma that took
// them: a caller writes them out before it returns and keeps none of them
// (an asynchronous commit copies them before the pragma returns). With
// keep non-nil the image holds only the sections keep admits by name, as
// Save's image of a registry of just those sections would.
func (g *Registry) SaveParts(keep func(name string) bool) [][]byte {
	type cut struct {
		at   int // where in the framing the view goes
		view []byte
	}
	var cuts []cut
	w := wire.NewWriter(512)
	g.walk(w, func(b []byte) { cuts = append(cuts, cut{at: w.Len(), view: b}) }, keep)
	framing := w.Bytes()
	parts := make([][]byte, 0, 2*len(cuts)+1)
	from := 0
	for _, c := range cuts {
		parts = append(parts, framing[from:c.at], c.view)
		from = c.at
	}
	if from < len(framing) {
		parts = append(parts, framing[from:])
	}
	return parts
}

// walk writes the image into w: the section count, then each section's
// name and length-prefixed body, for every section keep admits (all of
// them with keep nil). With view non-nil, a bulk cell's body is its count
// in w followed by its memory handed to view, which w does not get; with
// view nil every body is encoded into w by the section's Save.
func (g *Registry) walk(w *wire.Writer, view func(b []byte), keep func(name string) bool) {
	at, n := w.Len(), 0
	w.U32(0)
	for _, s := range g.sections {
		if keep != nil && !keep(s.Name()) {
			continue
		}
		n++
		w.String(s.Name())
		count, mem, bulk := memory(s)
		if !bulk || view == nil {
			bytes32(w, s.Save)
			continue
		}
		w.U32(uint32(4 + len(mem)))
		w.U32(uint32(count))
		if len(mem) > 0 {
			view(mem)
		}
	}
	w.PatchU32(at, uint32(n))
}

// Digests returns each registered section's FNV-64a digest over its body,
// the bytes Save writes for it: a bulk cell's count and then its memory,
// hashed where it lies, and any other section's encoding.
func (g *Registry) Digests() map[string]uint64 {
	out := make(map[string]uint64, len(g.sections))
	h := fnv.New64a()
	w := wire.NewWriter(64)
	for _, s := range g.sections {
		h.Reset()
		w.Reset()
		if count, mem, bulk := memory(s); bulk {
			w.U32(uint32(count))
			h.Write(w.Bytes())
			h.Write(mem)
		} else {
			s.Save(w)
			h.Write(w.Bytes())
		}
		out[s.Name()] = h.Sum64()
	}
	return out
}

// bytes32 writes what body appends to w as a length-prefixed byte string:
// the encoding of w.Bytes32 without the intermediate buffer.
func bytes32(w *wire.Writer, body func(w *wire.Writer)) {
	at := w.Len()
	w.U32(0)
	body(w)
	w.PatchU32(at, uint32(w.Len()-at-4))
}

// --- Scalar cells ---

// Int is a checkpointed integer cell (loop counters, phase indices).
type Int struct {
	name string
	v    int64
}

// Name implements Section.
func (c *Int) Name() string { return c.name }

// Save implements Section.
func (c *Int) Save(w *wire.Writer) { w.I64(c.v) }

// Load implements Section.
func (c *Int) Load(r *wire.Reader) error { c.v = r.I64(); return r.Err() }

// LiveBytes implements Section.
func (c *Int) LiveBytes() int { return 8 }

// Get returns the value.
func (c *Int) Get() int { return int(c.v) }

// Set stores the value.
func (c *Int) Set(v int) { c.v = int64(v) }

// Add increments the value by d and returns the new value.
func (c *Int) Add(d int) int { c.v += int64(d); return int(c.v) }

// Int registers (or returns the existing) integer cell.
func (g *Registry) Int(name string) *Int {
	if s, ok := g.byName[name]; ok {
		return s.(*Int)
	}
	c := &Int{name: name}
	g.Register(c)
	return c
}

// Float64 is a checkpointed float cell.
type Float64 struct {
	name string
	v    float64
}

// Name implements Section.
func (c *Float64) Name() string { return c.name }

// Save implements Section.
func (c *Float64) Save(w *wire.Writer) { w.F64(c.v) }

// Load implements Section.
func (c *Float64) Load(r *wire.Reader) error { c.v = r.F64(); return r.Err() }

// LiveBytes implements Section.
func (c *Float64) LiveBytes() int { return 8 }

// Get returns the value.
func (c *Float64) Get() float64 { return c.v }

// Set stores the value.
func (c *Float64) Set(v float64) { c.v = v }

// Float64 registers (or returns the existing) float cell.
func (g *Registry) Float64(name string) *Float64 {
	if s, ok := g.byName[name]; ok {
		return s.(*Float64)
	}
	c := &Float64{name: name}
	g.Register(c)
	return c
}

// Bool is a checkpointed boolean cell.
type Bool struct {
	name string
	v    bool
}

// Name implements Section.
func (c *Bool) Name() string { return c.name }

// Save implements Section.
func (c *Bool) Save(w *wire.Writer) { w.Bool(c.v) }

// Load implements Section.
func (c *Bool) Load(r *wire.Reader) error { c.v = r.Bool(); return r.Err() }

// LiveBytes implements Section.
func (c *Bool) LiveBytes() int { return 1 }

// Get returns the value.
func (c *Bool) Get() bool { return c.v }

// Set stores the value.
func (c *Bool) Set(v bool) { c.v = v }

// Bool registers (or returns the existing) boolean cell.
func (g *Registry) Bool(name string) *Bool {
	if s, ok := g.byName[name]; ok {
		return s.(*Bool)
	}
	c := &Bool{name: name}
	g.Register(c)
	return c
}

// --- Slice cells ---

// Float64s is a checkpointed []float64.
type Float64s struct {
	name string
	data []float64
}

// Name implements Section.
func (c *Float64s) Name() string { return c.name }

// Save implements Section.
func (c *Float64s) Save(w *wire.Writer) { w.F64s(c.data) }

// Load implements Section. A saved slice of the registered length decodes
// in place, keeping the app's slice identity.
func (c *Float64s) Load(r *wire.Reader) error {
	vs := r.F64sInto(c.data)
	if r.Err() != nil {
		return r.Err()
	}
	c.data = vs
	return nil
}

// LiveBytes implements Section.
func (c *Float64s) LiveBytes() int { return 8 * len(c.data) }

// Data returns the backing slice.
func (c *Float64s) Data() []float64 { return c.data }

// Float64s registers (or returns the existing) float slice cell of length n.
func (g *Registry) Float64s(name string, n int) *Float64s {
	if s, ok := g.byName[name]; ok {
		return s.(*Float64s)
	}
	c := &Float64s{name: name, data: make([]float64, n)}
	g.Register(c)
	return c
}

// Int64s is a checkpointed []int64.
type Int64s struct {
	name string
	data []int64
}

// Name implements Section.
func (c *Int64s) Name() string { return c.name }

// Save implements Section.
func (c *Int64s) Save(w *wire.Writer) { w.I64s(c.data) }

// Load implements Section.
func (c *Int64s) Load(r *wire.Reader) error {
	vs := r.I64sInto(c.data)
	if r.Err() != nil {
		return r.Err()
	}
	c.data = vs
	return nil
}

// LiveBytes implements Section.
func (c *Int64s) LiveBytes() int { return 8 * len(c.data) }

// Data returns the backing slice.
func (c *Int64s) Data() []int64 { return c.data }

// Int64s registers (or returns the existing) int slice cell of length n.
func (g *Registry) Int64s(name string, n int) *Int64s {
	if s, ok := g.byName[name]; ok {
		return s.(*Int64s)
	}
	c := &Int64s{name: name, data: make([]int64, n)}
	g.Register(c)
	return c
}

// Bytes is a checkpointed []byte whose length may change between saves.
type Bytes struct {
	name string
	data []byte
}

// Name implements Section.
func (c *Bytes) Name() string { return c.name }

// Save implements Section.
func (c *Bytes) Save(w *wire.Writer) { w.Bytes32(c.data) }

// Load implements Section.
func (c *Bytes) Load(r *wire.Reader) error {
	c.data = r.Bytes32()
	return r.Err()
}

// LiveBytes implements Section.
func (c *Bytes) LiveBytes() int { return len(c.data) }

// Data returns the current contents.
func (c *Bytes) Data() []byte { return c.data }

// SetData replaces the contents.
func (c *Bytes) SetData(b []byte) { c.data = b }

// Bytes registers (or returns the existing) byte-slice cell.
func (g *Registry) Bytes(name string) *Bytes {
	if s, ok := g.byName[name]; ok {
		return s.(*Bytes)
	}
	c := &Bytes{name: name}
	g.Register(c)
	return c
}

// Custom adapts save/load functions into a Section, for state that does not
// fit the provided cells (the analogue of C3's per-type descriptors).
type Custom struct {
	name string
	save func(w *wire.Writer)
	load func(r *wire.Reader) error
	size func() int
}

// NewCustom builds a custom section.
func NewCustom(name string, size func() int, save func(w *wire.Writer), load func(r *wire.Reader) error) *Custom {
	return &Custom{name: name, save: save, load: load, size: size}
}

// Name implements Section.
func (c *Custom) Name() string { return c.name }

// Save implements Section.
func (c *Custom) Save(w *wire.Writer) { c.save(w) }

// Load implements Section.
func (c *Custom) Load(r *wire.Reader) error { return c.load(r) }

// LiveBytes implements Section.
func (c *Custom) LiveBytes() int { return c.size() }

// SortedNames returns the registered section names in sorted order, for
// inspection tools.
func (g *Registry) SortedNames() []string {
	names := make([]string, 0, len(g.sections))
	for _, s := range g.sections {
		names = append(names, s.Name())
	}
	sort.Strings(names)
	return names
}
