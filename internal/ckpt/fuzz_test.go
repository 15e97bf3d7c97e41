package ckpt

import (
	"testing"

	"c3/internal/mpi"
	"c3/internal/wire"
)

// FuzzDeserialize throws arbitrary bytes at the checkpoint decode entry
// points: the handle tables (datatypes, communicators, reduction ops), the
// message registries, the collective result log, the request table, and
// an incremental line's header —
// everything recovery reads from stable storage or a socket. Corrupt input
// must produce an error, never a panic, a hang or an unbounded allocation.
func FuzzDeserialize(f *testing.F) {
	// Corpus: real serialized images from populated tables.
	tt := NewTypeTable()
	vec, _ := tt.Vector(4, 2, 8, HandleFloat64)
	_, _ = tt.Contiguous(3, vec)
	_, _ = tt.Indexed([]int{1, 2}, []int{0, 4}, HandleInt64)
	f.Add(tt.Serialize())

	ot := NewOpTable()
	f.Add(ot.Serialize())

	er := NewEarlyRegistry()
	er.Add(Signature{Ctx: 2, Tag: 11, Src: 1}, 1, 0, 64)
	er.Add(Signature{Ctx: 2, Tag: 12, Src: 3}, 3, 0, 16)
	f.Add(er.Serialize())

	lr := NewLateRegistry()
	lr.AddData(Signature{Ctx: 0, Tag: 7, Src: 2}, []byte("late-payload"))
	lr.AddSig(Signature{Ctx: 0, Tag: 9, Src: 1})
	f.Add(lr.Serialize())

	rl := NewResultLog()
	rl.Append(1, 3, []byte("allreduce-result"))
	f.Add(rl.Serialize())

	rt := NewReqTable()
	f.Add(rt.Serialize(1))

	f.Add(encodeDeltaHead(6, []string{"hot", "it", "static"}))

	// Truncation of a real image.
	img := tt.Serialize()
	f.Add(img[:len(img)/2])

	// A hostile indexed-type recipe whose element count (1<<62) overflows
	// the naive 1+2*n shape check — the corrupt-checkpoint panic the
	// recipe validation must reject.
	hw := wire.NewWriter(64)
	hw.U32(1)
	hw.Int(100)      // handle
	hw.U8(tkIndexed) // kind
	hw.Bool(true)    // alive
	hw.Ints([]int{1 << 62})
	hw.Ints([]int{HandleInt64})
	hw.Int(101)
	f.Add(hw.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		_ = NewTypeTable().Restore(data)
		_ = NewOpTable().Verify(data)
		// A replayed Dup or Split is a collective: in a world of one rank
		// it completes, where a second rank that never runs would hang it.
		world := mpi.NewWorld(1)
		_ = NewCommTable(world.Proc(0).CommWorld()).Restore(data)
		_, _ = LoadEarlyRegistry(data)
		_, _ = LoadLateRegistry(data)
		_, _ = LoadResultLog(data)
		_, _, _, _ = deserializeReqTable(data)
		_, _ = decodeSuppressItems(data)
		_, _ = decodeCtrlInitiated(data)
		_, _, _ = decodeDeltaHead(data)
	})
}
