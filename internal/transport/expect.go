package transport

// Receiving into a buffer the receiver names. A receiver that knows, before
// it asks a peer for something, exactly how the answer's payload begins and
// where its body belongs can arm an Expectation. An interconnect that reads
// frames off a wire (the TCP mesh) then reads a matching frame's body
// straight into that buffer instead of into a fresh frame buffer the
// receiver would copy out of again. The diskless restore uses it to land
// each fetched data shard at its offset of the blob it restores.
//
// Matching is exact or not at all: a frame from another peer or another
// generation, with another kind, another head or another length, one that
// arrives after its expectation matched once or was cancelled, or one that
// reaches the receiver relayed, takes the normal path and is delivered in a
// buffer of its own. So a receiver must accept its answer either way, and
// an interconnect that lands nothing (the in-memory Network) is correct
// without implementing any of this.

import (
	"bytes"
	"sync"
	"sync/atomic"
)

// MaxExpectHead bounds an expectation's head, so that a reader can look at
// the head of every frame it might match without knowing which one first.
const MaxExpectHead = 64

// Expectation is one answer a receiver awaits from one peer. Reply is the
// payload the answer will carry once it is read: its WireParts head is the
// payload's head byte for byte, and its body is the buffer the rest lands
// in, exactly as long as the rest must be. A landed answer is delivered
// with Reply itself as its payload, its head and its body not joined.
type Expectation struct {
	From  int
	Reply SplitPayload

	gen   uint64
	reg   *Expectations
	state atomic.Uint32
}

// Where an expectation stands. Only a reader moves it from armed to
// claimed, and only while it holds its registry's lock; only Cancel moves
// it from armed to cancelled, under the same lock.
const (
	expectArmed uint32 = iota
	expectClaimed
	expectLanded
	expectCancelled
)

// Lander is implemented by interconnects that can land an expected frame's
// body in its receiver's buffer.
type Lander interface {
	// Expect arms e, once, and reports whether the interconnect looks for
	// it. An expectation it does not look for never matches.
	Expect(e *Expectation) bool
}

// Cancel disarms e and reports whether its body buffer is the receiver's
// again: true unless a reader has begun to read a body into it and not
// finished. A buffer Cancel did not return may still be written at any
// time, so its owner must never read or hand it out again. Cancel is safe
// to call on an expectation that was never armed, or more than once.
func (e *Expectation) Cancel() bool {
	if x := e.reg; x != nil {
		x.mu.Lock()
		if e.state.CompareAndSwap(expectArmed, expectCancelled) {
			x.remove(e)
		}
		x.mu.Unlock()
	} else {
		e.state.CompareAndSwap(expectArmed, expectCancelled)
	}
	return e.state.Load() != expectClaimed
}

// Land marks a claimed expectation's body as read in full. The reader
// that claimed it calls it before delivering the answer.
func (e *Expectation) Land() { e.state.Store(expectLanded) }

// Expectations is an interconnect's set of armed expectations.
type Expectations struct {
	n     atomic.Int32
	mu    sync.Mutex
	armed []*Expectation
}

// Arm adds e and reports whether it did: a head longer than MaxExpectHead
// cannot be matched and is refused. e is expected in generation 0 unless
// a Demux view arming it through the mesh names its own.
func (x *Expectations) Arm(e *Expectation) bool {
	if head, _ := e.Reply.WireParts(); len(head) > MaxExpectHead {
		return false
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	e.reg = x
	x.armed = append(x.armed, e)
	x.n.Add(1)
	return true
}

// Armed reports how many expectations are armed: one atomic load, which
// is all a reader pays per frame while none is.
func (x *Expectations) Armed() int { return int(x.n.Load()) }

// Claim returns the armed expectation a frame matches, now claimed by the
// caller, or nil. The frame came from peer from in generation gen and
// carries a payload of the given kind and size, which starts with head
// (its first min(size, MaxExpectHead) bytes). A claimed expectation
// matches no other frame.
func (x *Expectations) Claim(from int, gen uint64, kind uint8, size int, head []byte) *Expectation {
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, e := range x.armed {
		if e.From != from || e.gen != gen || e.Reply.WireKind() != kind {
			continue
		}
		h, body := e.Reply.WireParts()
		if len(h)+len(body) == size && len(h) <= len(head) && bytes.Equal(head[:len(h)], h) {
			x.remove(e)
			e.state.Store(expectClaimed)
			return e
		}
	}
	return nil
}

// remove drops e from the armed set; callers hold x.mu.
func (x *Expectations) remove(e *Expectation) {
	for i, a := range x.armed {
		if a == e {
			last := len(x.armed) - 1
			x.armed[i], x.armed[last] = x.armed[last], nil
			x.armed = x.armed[:last]
			x.n.Add(-1)
			return
		}
	}
}
