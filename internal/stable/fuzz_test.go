package stable

import (
	"testing"

	"c3/internal/wire"
)

// FuzzReplDecode exercises the replication and recovery-query codecs with
// arbitrary bytes — exactly what a corrupt frame off a real socket would
// deliver to the store daemons. No input may panic or allocate beyond the
// input's own size class.
func FuzzReplDecode(f *testing.F) {
	// Corpus: real frames from a committed replication round, and the blob
	// they were cut from (section count, then name and bytes per section).
	w := wire.NewWriter(64)
	w.U32(2)
	w.String("app")
	w.Bytes32([]byte("application state"))
	w.String("late")
	w.Bytes32([]byte{1, 2, 3, 4})
	blob := w.Bytes()
	f.Add(blob)
	for _, g := range [][2]int{{1, 2}, {4, 2}} {
		shards, _ := newRSCodec(g[0], g[1]).Encode(blob)
		rec := replCommitRec{frags: len(shards), data: g[0], total: len(blob), sum: replSum(blob), sums: shardSums(shards)}
		f.Add([]byte(encodeReplFrag(1, 3, len(shards)-1, shards[len(shards)-1]).MarshalWire()))
		f.Add([]byte(encodeReplCommit(1, 3, rec)))
		f.Add([]byte(encodeDistRespLast(9, []distLastEntry{{version: 3, rec: rec, held: []int{1, 2}}})))
		f.Add([]byte(encodeDistRespFrag(10, true, shards[1]).MarshalWire()))
	}
	f.Add([]byte(encodeReplAck(1, 3, 2)))
	f.Add([]byte(encodeDistQueryLast(9, 1)))
	f.Add([]byte(encodeDistQueryFrag(10, 1, 3, 0)))
	f.Add([]byte(encodeDistPrune(1, 3, true)))
	f.Add(blob[:len(blob)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decodeReplSections(data)
		if len(data) == 0 {
			return
		}
		p := replPayload(data)
		_, _, _, _, _ = decodeReplFrag(p)
		_, _, _, _ = decodeReplCommit(p)
		_, _, _, _ = decodeReplAck(p)
		_, _, _ = decodeDistQueryLast(p)
		_, _, _ = decodeDistRespLast(p)
		_, _, _, _, _ = decodeDistQueryFrag(p)
		_, _, _, _ = decodeDistRespFrag(p, nil)
		_, _, _, _ = decodeDistPrune(p)
		_, _ = peekDistReqID(p)
	})
}
