package stable

import (
	"fmt"

	"c3/internal/wire"
)

// Codecs for the distributed store's recovery-query messages. Like the
// replication codecs they produce replPayload values, so the same
// interconnect (and the same TCP frame kind) carries them.

func encodeDistQueryLast(reqID uint64, owner int) replPayload {
	w := wire.NewWriter(24)
	w.U8(distMsgQueryLast)
	w.U64(reqID)
	w.Int(owner)
	return replPayload(w.Bytes())
}

func decodeDistQueryLast(data replPayload) (reqID uint64, owner int, err error) {
	r := wire.NewReader(data[1:])
	reqID = r.U64()
	owner = r.Int()
	return reqID, owner, r.Err()
}

func encodeDistRespLast(reqID uint64, entries []distLastEntry) replPayload {
	w := wire.NewWriter(16 + 96*len(entries))
	w.U8(distMsgRespLast)
	w.U64(reqID)
	w.U32(uint32(len(entries)))
	for _, e := range entries {
		w.Int(e.version)
		writeReplRec(w, e.rec)
		w.Ints(e.held)
	}
	return replPayload(w.Bytes())
}

func decodeDistRespLast(data replPayload) (reqID uint64, entries []distLastEntry, err error) {
	r := wire.NewReader(data[1:])
	reqID = r.U64()
	n := r.Count(8 + replRecWireMin + 4) // minimum bytes per serialized entry
	for i := 0; i < n; i++ {
		e := distLastEntry{version: r.Int()}
		e.rec = readReplRec(r)
		e.held = r.Ints()
		if r.Err() != nil {
			break
		}
		if !e.rec.sane() {
			return reqID, nil, fmt.Errorf("stable: insane marker geometry in last-committed response (frags=%d data=%d total=%d)",
				e.rec.frags, e.rec.data, e.rec.total)
		}
		entries = append(entries, e)
	}
	if err := r.Err(); err != nil {
		return reqID, nil, fmt.Errorf("stable: corrupt last-committed response: %w", err)
	}
	return reqID, entries, nil
}

func encodeDistQueryFrag(reqID uint64, owner, version, idx int) replPayload {
	w := wire.NewWriter(40)
	w.U8(distMsgQueryFrag)
	w.U64(reqID)
	w.Int(owner)
	w.Int(version)
	w.Int(idx)
	return replPayload(w.Bytes())
}

func decodeDistQueryFrag(data replPayload) (reqID uint64, owner, version, idx int, err error) {
	r := wire.NewReader(data[1:])
	reqID = r.U64()
	owner, version, idx = r.Int(), r.Int(), r.Int()
	return reqID, owner, version, idx, r.Err()
}

func encodeDistRespFrag(reqID uint64, found bool, frag []byte) replPayload {
	w := wire.NewWriter(1 + 8 + 1 + 4) // header only, as in encodeReplFrag
	w.U8(distMsgRespFrag)
	w.U64(reqID)
	w.Bool(found)
	w.Bytes32(frag)
	return replPayload(w.Bytes())
}

func decodeDistRespFrag(data replPayload) (reqID uint64, found bool, frag []byte, err error) {
	r := wire.NewReader(data[1:])
	reqID = r.U64()
	found = r.Bool()
	frag = r.View32() // aliases the response, which carries this one fragment
	return reqID, found, frag, r.Err()
}

func encodeDistPrune(owner, version int, above bool) replPayload {
	w := wire.NewWriter(24)
	w.U8(distMsgPrune)
	w.Int(owner)
	w.Int(version)
	w.Bool(above)
	return replPayload(w.Bytes())
}

func decodeDistPrune(data replPayload) (owner, version int, above bool, err error) {
	r := wire.NewReader(data[1:])
	owner, version = r.Int(), r.Int()
	above = r.Bool()
	return owner, version, above, r.Err()
}

// peekDistReqID extracts the request id from a response payload without
// fully decoding it, for routing to the right waiter.
func peekDistReqID(data replPayload) (uint64, bool) {
	if len(data) < 9 {
		return 0, false
	}
	r := wire.NewReader(data[1:9])
	id := r.U64()
	return id, r.Err() == nil
}
