package ckpt

import (
	"fmt"

	"c3/internal/mpi"
	"c3/internal/wire"
)

// CompletedBy values: what kind of message completed a request. Recorded
// during the logging phase ("during the logging phase, we mark the type of
// message matching the posted request during each completed Test or Wait
// call", Section 4.1) so recovery knows which crossing requests to replay
// from the log and which to recreate.
const (
	cbNone   uint8 = iota // still pending
	cbIntra               // completed by an intra-epoch message (re-sent on recovery)
	cbLate                // completed by a late message (replayed from the log)
	cbEarly               // completed by an early message
	cbAtLine              // already complete when the checkpoint was taken
)

// ReqEntry is one row of the request indirection table. The application
// holds the integer ID; the entry holds the live MPI request plus everything
// needed to reconstruct it on recovery ("for each request allocated by MPI,
// we allocate an entry in this table ... including type of operation,
// message parameters, and the epoch in which the request has been
// allocated", Section 4.1).
type ReqEntry struct {
	ID        int
	IsRecv    bool
	Ctx       uint32
	Src       int32 // may be mpi.AnySource
	Tag       int32 // may be mpi.AnyTag
	BytesCap  int   // user payload capacity in bytes
	TypeH     int   // datatype handle, 0 if not table-managed
	BornEpoch uint64

	// Pin is the completing signature recorded when a wildcard request
	// completes with an intra-epoch message during logging; recovery
	// re-posts the request restricted to this signature.
	PinSrc int32
	PinTag int32
	Pinned bool

	Done        bool
	Status      mpi.Status // user view (payload bytes exclude the header)
	CompletedBy uint8
	LateSeq     uint64 // log entry that completed it, when CompletedBy == cbLate
	TestFails   int    // unsuccessful Test calls recorded this period
	ReplayFails int    // restored counter consumed during recovery

	// Runtime-only fields.
	buf      []byte        // application buffer (nil for restored entries until reattached)
	dt       *mpi.Datatype // application datatype (nil until reattached)
	count    int           // element count
	comm     *mpi.Comm
	mpiReq   *mpi.Request // live request, nil if replayed/suppressed
	wildcard bool
	replay   *LateEntry // reserved log entry for recovery-time requests
	restored bool       // loaded from a checkpoint
	dead     bool       // deallocated; row retained until the table is saved
}

// ReqTable is the request indirection table for one process.
type ReqTable struct {
	entries  map[int]*ReqEntry
	order    []int
	nextID   int
	idAtLine int

	// anyLog records the request IDs returned by Waitany/Waitsome calls
	// during the logging phase; anyReplay replays them during recovery.
	anyLog    [][]int
	anyReplay [][]int
}

// NewReqTable returns an empty table.
func NewReqTable() *ReqTable {
	return &ReqTable{entries: make(map[int]*ReqEntry), nextID: 1}
}

// New allocates a table entry with the next ID.
func (t *ReqTable) New(e *ReqEntry) *ReqEntry {
	e.ID = t.nextID
	t.nextID++
	t.entries[e.ID] = e
	t.order = append(t.order, e.ID)
	return e
}

// Get returns the entry for an ID.
func (t *ReqTable) Get(id int) (*ReqEntry, bool) {
	e, ok := t.entries[id]
	if !ok || e.dead {
		return nil, false
	}
	return e, true
}

// Release deallocates an entry. During a checkpoint period removal is
// deferred ("we delay any deallocation of request table entries until after
// the request table has been saved", Section 4.1); outside one the row is
// removed immediately.
func (t *ReqTable) Release(id int, defer_ bool) {
	e, ok := t.entries[id]
	if !ok {
		return
	}
	if defer_ {
		e.dead = true
		return
	}
	t.remove(id)
}

func (t *ReqTable) remove(id int) {
	delete(t.entries, id)
	for i, h := range t.order {
		if h == id {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
}

// BeginPeriod starts a checkpoint period at the given line: the ID
// watermark is recorded and test counters reset ("this counter is reset at
// the beginning of each checkpointing period").
func (t *ReqTable) BeginPeriod() {
	t.idAtLine = t.nextID
	for _, e := range t.entries {
		e.TestFails = 0
		if e.Done {
			// Whatever completed it, the completion is now before the new
			// line: recovery treats it as complete-at-line (its data is in
			// the checkpointed application state).
			e.CompletedBy = cbAtLine
		}
	}
	t.anyLog = nil
}

// EndPeriod sweeps rows deallocated during the period.
func (t *ReqTable) EndPeriod() {
	for id, e := range t.entries {
		if e.dead {
			t.remove(id)
			_ = e
		}
	}
}

// LogAnyCompletion records a Waitany/Waitsome outcome during logging.
func (t *ReqTable) LogAnyCompletion(ids []int) {
	t.anyLog = append(t.anyLog, append([]int(nil), ids...))
}

// PopAnyReplay pops the next recorded Waitany/Waitsome outcome during
// recovery; ok is false when the replay log is exhausted.
func (t *ReqTable) PopAnyReplay() ([]int, bool) {
	if len(t.anyReplay) == 0 {
		return nil, false
	}
	ids := t.anyReplay[0]
	t.anyReplay = t.anyReplay[1:]
	return ids, true
}

// AnyReplayPending reports whether Waitany replays remain.
func (t *ReqTable) AnyReplayPending() bool { return len(t.anyReplay) > 0 }

// Serialize encodes the crossing entries — those allocated before the line
// and alive when it was taken — together with the Waitany log and the ID
// watermark. Called at commit time, "when all late messages have been
// received", so each entry's completion kind is known.
func (t *ReqTable) Serialize(line uint64) []byte {
	w := wire.NewWriter(256)
	var crossing []*ReqEntry
	for _, id := range t.order {
		e := t.entries[id]
		if e.BornEpoch < line {
			crossing = append(crossing, e)
		}
	}
	w.U32(uint32(len(crossing)))
	for _, e := range crossing {
		w.Int(e.ID)
		w.Bool(e.IsRecv)
		w.U32(e.Ctx)
		w.I64(int64(e.Src))
		w.I64(int64(e.Tag))
		w.Int(e.BytesCap)
		w.Int(e.TypeH)
		w.U64(e.BornEpoch)
		w.Bool(e.Pinned)
		w.I64(int64(e.PinSrc))
		w.I64(int64(e.PinTag))
		// Done must describe the state AT THE LINE, not at commit time: a
		// request completed during the logging phase re-completes during
		// recovery (from the log or from a re-sent message).
		w.Bool(e.Done && e.CompletedBy == cbAtLine)
		w.Int(e.Status.Source)
		w.Int(e.Status.Tag)
		w.Int(e.Status.Bytes)
		w.U8(e.CompletedBy)
		w.U64(e.LateSeq)
		w.Int(e.TestFails)
	}
	w.Int(t.idAtLine)
	w.U32(uint32(len(t.anyLog)))
	for _, ids := range t.anyLog {
		w.Ints(ids)
	}
	return w.Bytes()
}

// restoredEntry is a deserialized crossing entry before merging.
type restoredEntry struct {
	ReqEntry
}

// Deserialize decodes a table image.
func deserializeReqTable(data []byte) ([]restoredEntry, int, [][]int, error) {
	r := wire.NewReader(data)
	// Each serialized entry occupies at least 112 bytes; clamping the count
	// keeps a corrupt image from pre-allocating an enormous slice.
	n := r.Count(112)
	entries := make([]restoredEntry, 0, n)
	for i := 0; i < n; i++ {
		var e restoredEntry
		e.ID = r.Int()
		e.IsRecv = r.Bool()
		e.Ctx = r.U32()
		e.Src = int32(r.I64())
		e.Tag = int32(r.I64())
		e.BytesCap = r.Int()
		e.TypeH = r.Int()
		e.BornEpoch = r.U64()
		e.Pinned = r.Bool()
		e.PinSrc = int32(r.I64())
		e.PinTag = int32(r.I64())
		e.Done = r.Bool()
		e.Status = mpi.Status{Source: r.Int(), Tag: r.Int(), Bytes: r.Int()}
		e.CompletedBy = r.U8()
		e.LateSeq = r.U64()
		e.ReplayFails = r.Int()
		entries = append(entries, e)
	}
	idAtLine := r.Int()
	na := r.Count(4)
	anyReplay := make([][]int, 0, na)
	for i := 0; i < na; i++ {
		anyReplay = append(anyReplay, r.Ints())
	}
	if err := r.Err(); err != nil {
		return nil, 0, nil, fmt.Errorf("ckpt: corrupt request table: %w", err)
	}
	return entries, idAtLine, anyReplay, nil
}
