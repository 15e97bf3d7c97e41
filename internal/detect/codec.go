package detect

import (
	"fmt"

	"c3/internal/transport"
	"c3/internal/wire"
)

// Detector message kinds (first payload byte).
const (
	msgPing    uint8 = iota + 1 // heartbeat, carries the sender's epoch
	msgSuspect                  // gossip: sender suspects target dead
	msgPropose                  // agreement phase 1: (epoch, seq, dead set)
	msgAck                      // agreement phase 1 response
	msgCommit                   // agreement phase 2: epoch transition
	msgHello                    // a (re)joining rank announces itself
	msgState                    // membership snapshot, answers hello / catch-up
	msgDrain                    // request: remove a member at the next epoch
	// Two-level (grouped) topology messages.
	msgReport     // delegate report: own group's live set + per-group live counts
	msgProposeRly // propose relayed through a group delegate (carries origin)
	msgAckAgg     // delegate's aggregated agreement acks for its group
	msgCommitRly  // commit relayed through a group delegate (forward to group)
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
	cause = Cause(r.U8())
	if cause >= numCauses {
		cause = CauseNone
	}
	return epoch, target, cause, r.Err()
}

// Propose, commit, and state all carry the proposed (or current) member
// list alongside the dead set: membership is part of what the agreement
// commits, so a rank can never adopt an epoch without also adopting the
// member ring that epoch's quorum rules are defined over.
func encodePropose(epoch, seq uint64, dead, members []int) payload {
	w := wire.NewWriter(40 + 8*len(dead) + 8*len(members))
	w.U8(msgPropose)
	w.U64(epoch)
	w.U64(seq)
	w.Ints(dead)
	w.Ints(members)
	return payload(w.Bytes())
}

func decodePropose(data payload) (epoch, seq uint64, dead, members []int, err error) {
	r := wire.NewReader(data[1:])
	epoch = r.U64()
	seq = r.U64()
	dead = r.Ints()
	members = r.Ints()
	return epoch, seq, dead, members, r.Err()
}

func encodeAck(epoch, seq uint64) payload {
	w := wire.NewWriter(17)
	w.U8(msgAck)
	w.U64(epoch)
	w.U64(seq)
	return payload(w.Bytes())
}

func decodeAck(data payload) (epoch, seq uint64, err error) {
	r := wire.NewReader(data[1:])
	epoch = r.U64()
	seq = r.U64()
	return epoch, seq, r.Err()
}

func encodeCommit(epoch uint64, dead, members []int) payload {
	w := wire.NewWriter(32 + 8*len(dead) + 8*len(members))
	w.U8(msgCommit)
	w.U64(epoch)
	w.Ints(dead)
	w.Ints(members)
	return payload(w.Bytes())
}

func decodeCommit(data payload) (epoch uint64, dead, members []int, err error) {
	r := wire.NewReader(data[1:])
	epoch = r.U64()
	dead = r.Ints()
	members = r.Ints()
	return epoch, dead, members, r.Err()
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

// --- Grouped-topology messages ---

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

// encodeProposeRly is a propose routed through a group delegate: origin is
// the coordinator the acks must reach, and hops=1 asks the receiving
// delegate to re-broadcast the proposal (with hops=0) to its group and
// aggregate the group's acks back to origin.
func encodeProposeRly(epoch, seq uint64, origin int, hops uint8, dead, members []int) payload {
	w := wire.NewWriter(50 + 8*len(dead) + 8*len(members))
	w.U8(msgProposeRly)
	w.U64(epoch)
	w.U64(seq)
	w.Int(origin)
	w.U8(hops)
	w.Ints(dead)
	w.Ints(members)
	return payload(w.Bytes())
}

func decodeProposeRly(data payload) (epoch, seq uint64, origin int, hops uint8, dead, members []int, err error) {
	r := wire.NewReader(data[1:])
	epoch = r.U64()
	seq = r.U64()
	origin = r.Int()
	hops = r.U8()
	dead = r.Ints()
	members = r.Ints()
	return epoch, seq, origin, hops, dead, members, r.Err()
}

// encodeAckAgg carries a delegate's aggregated agreement votes: every group
// member (delegate included) whose ack for (epoch, seq) the delegate has
// collected so far. Aggregates are cumulative and idempotent at the
// coordinator, so retransmissions and reordering are harmless.
func encodeAckAgg(epoch, seq uint64, ranks []int) payload {
	w := wire.NewWriter(25 + 8*len(ranks))
	w.U8(msgAckAgg)
	w.U64(epoch)
	w.U64(seq)
	w.Ints(ranks)
	return payload(w.Bytes())
}

func decodeAckAgg(data payload) (epoch, seq uint64, ranks []int, err error) {
	r := wire.NewReader(data[1:])
	epoch = r.U64()
	seq = r.U64()
	ranks = r.Ints()
	return epoch, seq, ranks, r.Err()
}

// encodeCommitRly is a commit routed through a group delegate: the receiver
// applies the epoch and re-broadcasts a plain commit to its (new) group.
func encodeCommitRly(epoch uint64, dead, members []int) payload {
	w := wire.NewWriter(32 + 8*len(dead) + 8*len(members))
	w.U8(msgCommitRly)
	w.U64(epoch)
	w.Ints(dead)
	w.Ints(members)
	return payload(w.Bytes())
}

func decodeCommitRly(data payload) (epoch uint64, dead, members []int, err error) {
	r := wire.NewReader(data[1:])
	epoch = r.U64()
	dead = r.Ints()
	members = r.Ints()
	return epoch, dead, members, r.Err()
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
	case msgProposeRly:
		return "propose-rly"
	case msgAckAgg:
		return "ack-agg"
	case msgCommitRly:
		return "commit-rly"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
}
