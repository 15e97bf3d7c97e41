package transport

// This file defines how message payloads cross a real wire. The in-memory
// Network passes payloads by reference, so it never needs this; the TCP
// mesh (transport/tcp) serializes every payload into a frame and must be
// able to rebuild it on the receiving side without importing the packages
// that define the payload types (they import transport, so the dependency
// must point this way).
//
// A payload that can cross a wire implements WirePayload; the owning
// package registers a matching decoder for its kind byte at init time.

import (
	"fmt"
	"sync"
)

// Wire payload kinds. Each kind is owned by the package that registers its
// decoder; the values are part of the TCP frame format and must not be
// reused.
const (
	// WireKindGoodbye is reserved for the TCP mesh's goodbye frame: an
	// empty body an orderly Shutdown sends on each outbound connection. No
	// payload may claim it.
	WireKindGoodbye uint8 = 0
	// WireKindEnvelope is an *mpi.Envelope (registered by internal/mpi).
	WireKindEnvelope uint8 = 1
	// WireKindRepl is a stable-store replication payload (registered by
	// internal/stable).
	WireKindRepl uint8 = 2
	// WireKindDetect is a failure-detector payload — heartbeats, suspicion
	// gossip, and epoch-agreement messages (registered by internal/detect).
	WireKindDetect uint8 = 3
	// WireKindRelay is an inter-group relay envelope: another kind's payload
	// wrapped with its original sender and final destination, forwarded
	// through an intermediate rank (registered by this package; see relay.go).
	WireKindRelay uint8 = 4
)

// WirePayload is implemented by payloads that can cross a real wire.
type WirePayload interface {
	// WireKind identifies the decoder for this payload.
	WireKind() uint8
	// MarshalWire returns the payload's wire encoding.
	MarshalWire() []byte
}

// SplitPayload is a WirePayload whose encoding is a short head followed by
// a body that lies elsewhere, such as a view of a checkpoint shard. A wire
// that writes a frame in segments sends the body from where it lies
// instead of copying it behind the head; MarshalWire still returns the
// joined encoding, for a path that needs it in one buffer. Nobody modifies
// the body while the message may still be written.
type SplitPayload interface {
	WirePayload
	// WireParts returns the encoding as head followed by body.
	WireParts() (head, body []byte)
}

var (
	wireDecMu    sync.RWMutex
	wireDecoders = map[uint8]func(data []byte) (any, error){}
)

// RegisterWireDecoder installs the decoder for a payload kind. It panics on
// duplicate registration — two packages claiming one kind byte is a build
// structure bug.
func RegisterWireDecoder(kind uint8, dec func(data []byte) (any, error)) {
	wireDecMu.Lock()
	defer wireDecMu.Unlock()
	if _, dup := wireDecoders[kind]; dup {
		panic(fmt.Sprintf("transport: duplicate wire decoder for kind %d", kind))
	}
	wireDecoders[kind] = dec
}

// DecodeWirePayload rebuilds a payload from its wire encoding. The data
// slice is handed over to the decoder: callers pass bytes nobody modifies
// afterwards (the TCP mesh reads each frame it decodes into an allocation
// of its own), so a decoder of bulk payloads may keep a sub-slice instead
// of copying. A frame the mesh lands in a buffer its receiver named
// (Expectation) is not decoded at all: it arrives as the receiver's own
// Reply.
func DecodeWirePayload(kind uint8, data []byte) (any, error) {
	wireDecMu.RLock()
	dec := wireDecoders[kind]
	wireDecMu.RUnlock()
	if dec == nil {
		return nil, fmt.Errorf("transport: no wire decoder for payload kind %d", kind)
	}
	return dec(data)
}
