package trace

import (
	"sync"
	"testing"
)

// TestRingWrapConcurrent hammers the lock-free write path from many
// goroutines through several ring wraps and checks Snapshot's contract:
// at most the ring capacity of events, strictly increasing sequence
// numbers, no duplicates, every event internally consistent. Run under
// -race this is the recorder's data-race proof.
func TestRingWrapConcurrent(t *testing.T) {
	const (
		ring       = 128
		writers    = 8
		perWriter  = 500
		totalLocal = writers * perWriter
	)
	r := New(ring)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				switch i % 3 {
				case 0:
					r.Emit(int32(w), KindSuspect, 0, uint64(i))
				case 1:
					sp := r.Begin(int32(w), KindCommit, 0, uint64(i))
					sp.End(uint64(i))
				case 2:
					ctx := r.Send(int32(w), int32((w+1)%writers), uint64(i))
					r.Recv(int32((w+1)%writers), int32(w), ctx, uint64(i))
				}
			}
		}(w)
	}
	wg.Wait()

	if got := r.Len(); got < totalLocal {
		t.Fatalf("Len() = %d, want >= %d events ever recorded", got, totalLocal)
	}
	snap := r.Snapshot()
	if len(snap) == 0 || len(snap) > ring {
		t.Fatalf("snapshot has %d events, want (0, %d]", len(snap), ring)
	}
	for i, ev := range snap {
		if i > 0 && ev.Seq <= snap[i-1].Seq {
			t.Fatalf("snapshot not strictly ordered: seq %d after %d", ev.Seq, snap[i-1].Seq)
		}
		if ev.Kind >= KindCount || ev.Phase > PhaseRecv {
			t.Fatalf("snapshot event %d torn: kind=%d phase=%d", i, ev.Kind, ev.Phase)
		}
	}
}

// TestSnapshotWindow checks that after wrapping, the snapshot is the
// trailing window of the write sequence.
func TestSnapshotWindow(t *testing.T) {
	r := New(64)
	for i := 0; i < 200; i++ {
		r.Emit(0, KindGossip, 0, uint64(i))
	}
	snap := r.Snapshot()
	if len(snap) != 64 {
		t.Fatalf("snapshot has %d events, want the full 64-slot ring", len(snap))
	}
	if snap[0].Seq != 200-64 || snap[len(snap)-1].Seq != 199 {
		t.Fatalf("snapshot window [%d,%d], want [136,199]", snap[0].Seq, snap[len(snap)-1].Seq)
	}
}

// TestLamportSendRecv verifies the happens-before guarantee the merge
// relies on: a recv's Lamport clock is strictly greater than its send's,
// across independent per-process recorders with no shared state.
func TestLamportSendRecv(t *testing.T) {
	a, b := New(64), New(64)
	a.SetSalt(0)
	b.SetSalt(1)

	// Let b's local clock run AHEAD of a's: the merge (not the tick) must
	// carry the ordering.
	for i := 0; i < 10; i++ {
		b.Emit(1, KindGossip, 0, 0)
	}
	ctx := a.Send(0, 1, 42)
	b.Recv(1, 0, ctx, 42)

	var send, recv *Event
	for _, ev := range a.Snapshot() {
		if ev.Phase == PhaseSend {
			e := ev
			send = &e
		}
	}
	for _, ev := range b.Snapshot() {
		if ev.Phase == PhaseRecv {
			e := ev
			recv = &e
		}
	}
	if send == nil || recv == nil {
		t.Fatal("send or recv event missing from snapshots")
	}
	if recv.Span != send.Span {
		t.Fatalf("edge span mismatch: send %#x, recv %#x", send.Span, recv.Span)
	}
	if recv.Clock <= send.Clock {
		t.Fatalf("happens-before violated: send clock %d, recv clock %d", send.Clock, recv.Clock)
	}

	// And the reverse skew: a receives from b, whose clock is far ahead.
	ctx = b.Send(1, 0, 7)
	a.Recv(0, 1, ctx, 7)
	var send2, recv2 Event
	for _, ev := range b.Snapshot() {
		if ev.Phase == PhaseSend {
			send2 = ev
		}
	}
	for _, ev := range a.Snapshot() {
		if ev.Phase == PhaseRecv {
			recv2 = ev
		}
	}
	if recv2.Clock <= send2.Clock {
		t.Fatalf("happens-before violated on skewed edge: send clock %d, recv clock %d", send2.Clock, recv2.Clock)
	}
}

// TestSaltedSpanIDsDisjoint: per-process recorders starting their span
// counters at zero must still mint world-unique ids once salted.
func TestSaltedSpanIDsDisjoint(t *testing.T) {
	a, b := New(64), New(64)
	a.SetSalt(0)
	b.SetSalt(1)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		for _, id := range []uint64{a.NewSpan(), b.NewSpan()} {
			if seen[id] {
				t.Fatalf("span id %#x minted twice across salted recorders", id)
			}
			seen[id] = true
		}
	}
}

// TestIncarnationSaltsDisjoint: a respawned rank (same rank, another
// process id) mints span ids disjoint from its predecessor's, and two
// ranks of one process id stay disjoint too, at the field's widest values.
func TestIncarnationSaltsDisjoint(t *testing.T) {
	recorders := map[string]*Recorder{
		"rank 1 pid 4242":    New(64),
		"rank 1 pid 4243":    New(64),
		"rank 2 pid 4242":    New(64),
		"rank 4095 pid 2047": New(64),
		"rank 4095 pid 2046": New(64),
	}
	recorders["rank 1 pid 4242"].SetSalt(IncarnationSalt(1, 4242))
	recorders["rank 1 pid 4243"].SetSalt(IncarnationSalt(1, 4243))
	recorders["rank 2 pid 4242"].SetSalt(IncarnationSalt(2, 4242))
	recorders["rank 4095 pid 2047"].SetSalt(IncarnationSalt(4095, 2047))
	recorders["rank 4095 pid 2046"].SetSalt(IncarnationSalt(4095, 2046))
	minted := map[uint64]string{}
	for name, r := range recorders {
		for i := 0; i < 1000; i++ {
			id := r.NewSpan()
			if other, dup := minted[id]; dup {
				t.Fatalf("span id %#x minted by %s and %s", id, other, name)
			}
			minted[id] = name
		}
	}
}

// TestSpanFeedsHistogram: End routes the span duration into the
// per-kind histogram, under an injected deterministic clock.
func TestSpanFeedsHistogram(t *testing.T) {
	r := New(64)
	var now int64
	r.SetClock(func() int64 { return now })

	sp := r.Begin(3, KindRestore, 0, 9)
	now += 1500 // 1.5µs
	sp.End(11)

	h := r.Histogram(KindRestore)
	if h.Count != 1 || h.Sum != 1500 {
		t.Fatalf("histogram count=%d sum=%d, want 1/1500", h.Count, h.Sum)
	}
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d events, want begin+end", len(snap))
	}
	if snap[0].Phase != PhaseBegin || snap[1].Phase != PhaseEnd || snap[0].Span != snap[1].Span {
		t.Fatalf("begin/end pair mangled: %+v %+v", snap[0], snap[1])
	}
	if snap[1].Time-snap[0].Time != 1500 {
		t.Fatalf("span duration %d, want 1500", snap[1].Time-snap[0].Time)
	}

	// The zero Span must be a safe no-op (early-return paths End blindly).
	var zero Span
	zero.End(0)
}

// TestSetEnabled: the kill switch silences every record path and hands
// out zero contexts, and flipping it back restores recording.
func TestSetEnabled(t *testing.T) {
	r := New(64)
	if !r.Enabled() {
		t.Fatal("recorder must start enabled")
	}
	r.SetEnabled(false)
	r.Emit(0, KindSuspect, 0, 1)
	sp := r.Begin(0, KindCommit, 0, 1)
	sp.End(1)
	ctx := r.Send(0, 1, 8)
	r.Recv(1, 0, ctx, 8)
	r.Observe(KindShip, 100)
	if r.Len() != 0 {
		t.Fatalf("disabled recorder recorded %d events", r.Len())
	}
	if ctx != (Ctx{}) {
		t.Fatalf("disabled Send returned non-zero context %+v", ctx)
	}
	if r.Clock() != 0 {
		t.Fatalf("disabled recorder ticked the Lamport clock to %d", r.Clock())
	}
	if h := r.Histogram(KindShip); h.Count != 0 {
		t.Fatalf("disabled Observe fed the histogram (count %d)", h.Count)
	}

	r.SetEnabled(true)
	r.Emit(0, KindSuspect, 0, 1)
	if r.Len() != 1 {
		t.Fatalf("re-enabled recorder recorded %d events, want 1", r.Len())
	}
}

// TestKindNames: every kind has a distinct parseable name (the ops JSON
// and c3trace output key on them).
func TestKindNames(t *testing.T) {
	seen := map[string]bool{}
	for k := KindNone; k < KindCount; k++ {
		name := k.String()
		if name == "" || name == "invalid" {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[name] {
			t.Fatalf("kind name %q duplicated", name)
		}
		seen[name] = true
		if ParseKind(name) != k {
			t.Fatalf("ParseKind(%q) = %d, want %d", name, ParseKind(name), k)
		}
	}
	if KindCount.String() != "invalid" || ParseKind("no-such-kind") != KindNone {
		t.Fatal("out-of-range kinds must be invalid/none")
	}
}
