package detect

import (
	"fmt"

	"c3/internal/transport"
	"c3/internal/wire"
)

// Detector message kinds (first payload byte).
const (
	msgPing    uint8 = iota + 1 // lease ping, carries the sender's epoch
	msgSuspect                  // gossip: sender suspects target dead
	msgPropose                  // agreement phase 1: (epoch, seq, origin, hops, dead set)
	msgAck                      // agreement phase 1 response: votes for origin's proposal
	msgCommit                   // agreement phase 2: epoch transition
	msgHello                    // a (re)joining rank announces itself
	msgState                    // membership snapshot, answers hello / catch-up
	msgDrain                    // request: remove a member at the next epoch
	msgReport                   // delegate report: own group's live set + per-group live counts
)

// payload is a detector message on the wire. Like the stable store's
// replication payloads it is its own encoding, so it crosses the in-memory
// network and the TCP mesh identically.
type payload []byte

// TransportSize implements transport.Sizer.
func (p payload) TransportSize() int { return len(p) }

// WireKind implements transport.WirePayload.
func (p payload) WireKind() uint8 { return transport.WireKindDetect }

// MarshalWire implements transport.WirePayload.
func (p payload) MarshalWire() []byte { return p }

func init() {
	transport.RegisterWireDecoder(transport.WireKindDetect, func(data []byte) (any, error) {
		return payload(append([]byte(nil), data...)), nil
	})
}

func encodePing(epoch uint64) payload {
	w := wire.NewWriter(9)
	w.U8(msgPing)
	w.U64(epoch)
	return payload(w.Bytes())
}

func decodePing(data payload) (epoch uint64, err error) {
	r := wire.NewReader(data[1:])
	epoch = r.U64()
	return epoch, r.Err()
}

// encodeSuspect gossips a suspicion with the path that raised it, so an
// adopting rank reports how the failure was really detected.
func encodeSuspect(epoch uint64, target int, cause Cause) payload {
	w := wire.NewWriter(18)
	w.U8(msgSuspect)
	w.U64(epoch)
	w.Int(target)
	w.U8(uint8(cause))
	return payload(w.Bytes())
}

func decodeSuspect(data payload) (epoch uint64, target int, cause Cause, err error) {
	r := wire.NewReader(data[1:])
	epoch = r.U64()
	target = r.Int()
	cause = Cause(r.U8()).known()
	return epoch, target, cause, r.Err()
}

// Propose, commit, and state all carry the proposed (or current) member
// list alongside the dead set: membership is part of what the agreement
// commits, so a rank can never adopt an epoch without also adopting the
// member ring that epoch's quorum rules are defined over.
//
// A propose names its coordinator (origin), which every ack and protest
// goes back to. hops=0 asks the receiver to vote; hops=1 addresses a group
// delegate, which also re-broadcasts the proposal (with hops=0) to its
// group and aggregates the group's votes toward origin.
func encodePropose(epoch, seq uint64, origin int, hops uint8, dead, members []int) payload {
	w := wire.NewWriter(34 + 8*len(dead) + 8*len(members))
	w.U8(msgPropose)
	w.U64(epoch)
	w.U64(seq)
	w.Int(origin)
	w.U8(hops)
	w.Ints(dead)
	w.Ints(members)
	return payload(w.Bytes())
}

func decodePropose(data payload) (epoch, seq uint64, origin int, hops uint8, dead, members []int, err error) {
	r := wire.NewReader(data[1:])
	epoch = r.U64()
	seq = r.U64()
	origin = r.Int()
	hops = r.U8()
	dead = r.Ints()
	members = r.Ints()
	return epoch, seq, origin, hops, dead, members, r.Err()
}

// encodeAck carries votes for origin's proposal (epoch, seq): one rank's
// own vote, or a delegate's cumulative aggregate of its group's votes.
// The coordinator counts each rank once, so resends and reordering are
// harmless.
func encodeAck(epoch, seq uint64, origin int, ranks []int) payload {
	w := wire.NewWriter(29 + 8*len(ranks))
	w.U8(msgAck)
	w.U64(epoch)
	w.U64(seq)
	w.Int(origin)
	w.Ints(ranks)
	return payload(w.Bytes())
}

func decodeAck(data payload) (epoch, seq uint64, origin int, ranks []int, err error) {
	r := wire.NewReader(data[1:])
	epoch = r.U64()
	seq = r.U64()
	origin = r.Int()
	ranks = r.Ints()
	return epoch, seq, origin, ranks, r.Err()
}

// encodeCommit announces an epoch transition. relay addresses a group's
// first live member, which applies the epoch and re-broadcasts a plain
// commit to its group under the membership the commit installs.
func encodeCommit(epoch uint64, relay bool, dead, members []int) payload {
	w := wire.NewWriter(18 + 8*len(dead) + 8*len(members))
	w.U8(msgCommit)
	w.U64(epoch)
	w.Bool(relay)
	w.Ints(dead)
	w.Ints(members)
	return payload(w.Bytes())
}

func decodeCommit(data payload) (epoch uint64, relay bool, dead, members []int, err error) {
	r := wire.NewReader(data[1:])
	epoch = r.U64()
	relay = r.Bool()
	dead = r.Ints()
	members = r.Ints()
	return epoch, relay, dead, members, r.Err()
}

func encodeHello() payload {
	return payload([]byte{msgHello})
}

func encodeState(epoch uint64, dead, members []int) payload {
	w := wire.NewWriter(32 + 8*len(dead) + 8*len(members))
	w.U8(msgState)
	w.U64(epoch)
	w.Ints(dead)
	w.Ints(members)
	return payload(w.Bytes())
}

func decodeState(data payload) (epoch uint64, dead, members []int, err error) {
	r := wire.NewReader(data[1:])
	epoch = r.U64()
	dead = r.Ints()
	members = r.Ints()
	return epoch, dead, members, r.Err()
}

// encodeDrain asks the world to remove target from the membership at the
// next epoch agreement (a graceful shrink). Like suspicion gossip it is
// retransmitted every tick until a commit settles it, so a lossy send
// path cannot strand the request.
func encodeDrain(epoch uint64, target int) payload {
	w := wire.NewWriter(17)
	w.U8(msgDrain)
	w.U64(epoch)
	w.Int(target)
	return payload(w.Bytes())
}

func decodeDrain(data payload) (epoch uint64, target int, err error) {
	r := wire.NewReader(data[1:])
	epoch = r.U64()
	target = r.Int()
	return epoch, target, r.Err()
}

// encodeReport is a delegate's periodic liveness report: the live members
// of its own group (positive evidence for whole-group failure detection)
// plus its per-group live counts (the world view its group members fence
// against — a non-delegate only hears cross-group evidence through its
// delegate).
func encodeReport(epoch uint64, groups, live []int) payload {
	w := wire.NewWriter(25 + 8*len(groups) + 8*len(live))
	w.U8(msgReport)
	w.U64(epoch)
	w.Ints(groups)
	w.Ints(live)
	return payload(w.Bytes())
}

func decodeReport(data payload) (epoch uint64, groups, live []int, err error) {
	r := wire.NewReader(data[1:])
	epoch = r.U64()
	groups = r.Ints()
	live = r.Ints()
	return epoch, groups, live, r.Err()
}

func kindName(k uint8) string {
	switch k {
	case msgPing:
		return "ping"
	case msgSuspect:
		return "suspect"
	case msgPropose:
		return "propose"
	case msgAck:
		return "ack"
	case msgCommit:
		return "commit"
	case msgHello:
		return "hello"
	case msgState:
		return "state"
	case msgDrain:
		return "drain"
	case msgReport:
		return "report"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
}
