package detect

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"c3/internal/member"
	"c3/internal/transport"
)

// TestRingSets pins the full-world monitor ring the detector boots with:
// two successors watched, two predecessors watching. The ring math itself
// now lives in member.Set; this asserts the detector's use of it.
func TestRingSets(t *testing.T) {
	cases := []struct {
		rank, n    int
		succ, pred []int
	}{
		{0, 4, []int{1, 2}, []int{3, 2}},
		{3, 4, []int{0, 1}, []int{2, 1}},
		{1, 2, []int{0}, []int{0}},
		{0, 1, nil, nil},
	}
	for _, c := range cases {
		m := member.Launch(c.n)
		if got := m.Successors(c.rank, 2); !equalInts(got, c.succ) {
			t.Errorf("Successors(%d) in world %d = %v, want %v", c.rank, c.n, got, c.succ)
		}
		if got := m.Predecessors(c.rank, 2); !equalInts(got, c.pred) {
			t.Errorf("Predecessors(%d) in world %d = %v, want %v", c.rank, c.n, got, c.pred)
		}
	}
}

func TestMonitorPhiAccrual(t *testing.T) {
	t0 := time.Unix(1000, 0)
	m := newMonitor(10*time.Millisecond, t0)

	// Regular arrivals every 10ms: phi right after an arrival is ~0 and
	// stays small one interval later.
	now := t0
	for i := 0; i < 20; i++ {
		now = now.Add(10 * time.Millisecond)
		m.Observe(now)
	}
	if phi := m.Phi(now.Add(10 * time.Millisecond)); phi > 1 {
		t.Fatalf("phi one interval after arrival = %.2f, want < 1", phi)
	}
	// Silence accrues: ~11.5 intervals of silence crosses phi 5.
	if phi := m.Phi(now.Add(150 * time.Millisecond)); phi < 5 {
		t.Fatalf("phi after 15 silent intervals = %.2f, want >= 5", phi)
	}
	// A burst of near-simultaneous piggybacked arrivals must not collapse
	// the mean below the heartbeat floor.
	for i := 0; i < 50; i++ {
		now = now.Add(10 * time.Microsecond)
		m.Observe(now)
	}
	if phi := m.Phi(now.Add(15 * time.Millisecond)); phi > 2 {
		t.Fatalf("phi after burst + 1.5 intervals = %.2f, want <= 2 (mean floored)", phi)
	}
	// Reset restarts the silence clock.
	m.Reset(now.Add(time.Second))
	if phi := m.Phi(now.Add(time.Second + 5*time.Millisecond)); phi > 1 {
		t.Fatalf("phi right after reset = %.2f, want ~0", phi)
	}
}

func TestCodecRoundtrips(t *testing.T) {
	if e, err := decodePing(encodePing(7)); err != nil || e != 7 {
		t.Fatalf("ping roundtrip: epoch=%d err=%v", e, err)
	}
	if e, tgt, c, err := decodeSuspect(encodeSuspect(3, 12, CauseLoss)); err != nil || e != 3 || tgt != 12 || c != CauseLoss {
		t.Fatalf("suspect roundtrip: epoch=%d target=%d cause=%s err=%v", e, tgt, c, err)
	}
	e, s, dead, members, err := decodePropose(encodePropose(4, 9, []int{1, 3}, []int{0, 2, 4}))
	if err != nil || e != 4 || s != 9 || !equalInts(dead, []int{1, 3}) || !equalInts(members, []int{0, 2, 4}) {
		t.Fatalf("propose roundtrip: epoch=%d seq=%d dead=%v members=%v err=%v", e, s, dead, members, err)
	}
	if e, s, err := decodeAck(encodeAck(4, 9)); err != nil || e != 4 || s != 9 {
		t.Fatalf("ack roundtrip: epoch=%d seq=%d err=%v", e, s, err)
	}
	e, dead, members, err = decodeCommit(encodeCommit(5, []int{2}, []int{0, 1, 3}))
	if err != nil || e != 5 || !equalInts(dead, []int{2}) || !equalInts(members, []int{0, 1, 3}) {
		t.Fatalf("commit roundtrip: epoch=%d dead=%v members=%v err=%v", e, dead, members, err)
	}
	e, dead, members, err = decodeState(encodeState(6, nil, []int{0, 1}))
	if err != nil || e != 6 || len(dead) != 0 || !equalInts(members, []int{0, 1}) {
		t.Fatalf("state roundtrip: epoch=%d dead=%v members=%v err=%v", e, dead, members, err)
	}
	if e, tgt, err := decodeDrain(encodeDrain(7, 5)); err != nil || e != 7 || tgt != 5 {
		t.Fatalf("drain roundtrip: epoch=%d target=%d err=%v", e, tgt, err)
	}
	// Truncated payloads must error, not panic.
	for _, p := range []payload{encodePropose(1, 1, []int{1}, []int{0, 1}), encodeCommit(2, []int{0, 1}, []int{2})} {
		if _, _, _, _, err := decodePropose(p[:3]); err == nil && p[0] == msgPropose {
			t.Fatalf("truncated propose decoded without error")
		}
		_ = p
	}
}

// tuned widens the failure-detection margins that real time.Sleep-based
// tests depend on. The phi thresholds and heartbeat cadences below assume
// goroutines get scheduled within a couple of heartbeat intervals; under
// the race detector (or a heavily loaded CI runner) a starved emitter can
// fall silent long enough to cross the threshold and misfire a false
// suspicion. Slower heartbeats make a fixed scheduler stall span fewer
// intervals, and a higher threshold demands proportionally more silence —
// the detection-latency assertions all poll with generous deadlines, so
// widening costs nothing but wall time.
func tuned(hb time.Duration, phi float64) (time.Duration, float64) {
	if raceEnabled {
		return 3 * hb, phi + 3
	}
	return 2 * hb, phi + 1
}

// world spins up one detector per rank on a shared in-memory network.
type world struct {
	nw   *transport.Network
	dets []*Detector
}

func newWorld(t *testing.T, n int, hb time.Duration, phi float64, opts ...transport.Option) *world {
	t.Helper()
	w := &world{nw: transport.NewNetwork(n, opts...), dets: make([]*Detector, n)}
	for r := 0; r < n; r++ {
		w.startRank(t, r, n, hb, phi)
	}
	t.Cleanup(func() {
		for _, d := range w.dets {
			if d != nil {
				d.Close()
			}
		}
	})
	return w
}

func (w *world) startRank(t *testing.T, r, n int, hb time.Duration, phi float64) *Detector {
	t.Helper()
	d, err := New(Options{
		Self: r, Ranks: n, Net: w.nw,
		HeartbeatInterval: hb, PhiThreshold: phi,
		Logf: func(format string, args ...any) { t.Logf("detect: "+format, args...) },
	})
	if err != nil {
		t.Fatalf("rank %d: %v", r, err)
	}
	w.dets[r] = d
	d.Start()
	return d
}

// kill fail-stops a rank: its detector stops and its endpoint dies.
func (w *world) kill(r int) {
	w.dets[r].Close()
	w.dets[r] = nil
	w.nw.Kill(r)
}

// awaitEpoch polls the given ranks until each reaches at least epoch e.
func (w *world) awaitEpoch(t *testing.T, ranks []int, e uint64, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		ok := true
		for _, r := range ranks {
			if w.dets[r].Epoch() < e {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			status := ""
			for _, r := range ranks {
				status += fmt.Sprintf(" rank%d:epoch=%d dead=%v suspected=%v;",
					r, w.dets[r].Epoch(), w.dets[r].Dead(), w.dets[r].Suspected())
			}
			t.Fatalf("epoch %d not reached within %v:%s", e, within, status)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFailureFreeStaysAtEpochOne: with every rank heartbeating, no epoch
// transition and no suspicion survives a settling window.
func TestFailureFreeStaysAtEpochOne(t *testing.T) {
	hb, phi := tuned(5*time.Millisecond, 8)
	w := newWorld(t, 4, hb, phi)
	time.Sleep(80 * hb)
	for r, d := range w.dets {
		if e := d.Epoch(); e != 1 {
			t.Errorf("rank %d epoch = %d, want 1", r, e)
		}
		if dead := d.Dead(); len(dead) != 0 {
			t.Errorf("rank %d dead = %v, want none", r, dead)
		}
		if n := d.Detections(); n != 0 {
			t.Errorf("rank %d detections = %d, want 0", r, n)
		}
	}
}

// TestNoFalseSuspicionUnderScheduledDelay: heartbeats delivered through a
// constant scheduled delay (5x the heartbeat interval) keep flowing with
// their inter-arrival spacing intact, so the accrual detector must not
// suspect anyone — the classic timeout-detector false positive. When a rank
// then really dies, detection and agreement must still fire through the
// same delayed plane.
func TestNoFalseSuspicionUnderScheduledDelay(t *testing.T) {
	hb, phi := tuned(10*time.Millisecond, 8)
	delay := transport.ConstantLatency(5*hb, 0)
	w := newWorld(t, 4, hb, phi, transport.WithLatency(delay))
	time.Sleep(60 * hb)
	for r, d := range w.dets {
		if e := d.Epoch(); e != 1 {
			t.Fatalf("rank %d epoch = %d after delayed-but-live window, want 1 (false suspicion)", r, e)
		}
		if n := d.Detections(); n != 0 {
			t.Fatalf("rank %d detections = %d under scheduled delay, want 0", r, n)
		}
	}

	w.kill(1)
	survivors := []int{0, 2, 3}
	w.awaitEpoch(t, survivors, 2, 10*time.Second)
	for _, r := range survivors {
		if dead := w.dets[r].Dead(); !equalInts(dead, []int{1}) {
			t.Errorf("rank %d dead = %v, want [1]", r, dead)
		}
		if n := w.dets[r].Detections(); n != 1 {
			t.Errorf("rank %d detections = %d, want 1", r, n)
		}
		tm := w.dets[r].Times()
		if tm.AgreeAt.IsZero() {
			t.Errorf("rank %d has no agreement timestamp", r)
		}
	}
}

// TestTwoNearSimultaneousFailures: two ranks die within one heartbeat of
// each other; the survivors must converge on both deaths, either as one
// merged agreement or two consecutive epochs.
func TestTwoNearSimultaneousFailures(t *testing.T) {
	hb, phi := tuned(5*time.Millisecond, 6)
	w := newWorld(t, 5, hb, phi)
	time.Sleep(20 * hb) // settle
	w.kill(1)
	time.Sleep(hb / 2)
	w.kill(3)
	survivors := []int{0, 2, 4}
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := true
		for _, r := range survivors {
			if !equalInts(w.dets[r].Dead(), []int{1, 3}) {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			for _, r := range survivors {
				t.Logf("rank %d: epoch=%d dead=%v", r, w.dets[r].Epoch(), w.dets[r].Dead())
			}
			t.Fatal("survivors did not agree on both deaths")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, r := range survivors {
		if e := w.dets[r].Epoch(); e != 2 && e != 3 {
			t.Errorf("rank %d epoch = %d, want 2 (merged) or 3 (consecutive)", r, e)
		}
		if n := w.dets[r].Detections(); n != 2 {
			t.Errorf("rank %d detections = %d, want 2", r, n)
		}
	}
}

// TestCoordinatorDiesDuringRecovery: rank 0 dies; rank 1 — the coordinator
// for that agreement — dies moments later (possibly mid-proposal). Rank 2
// must take over and finish both agreements.
func TestCoordinatorDiesDuringRecovery(t *testing.T) {
	hb, phi := tuned(5*time.Millisecond, 6)
	w := newWorld(t, 5, hb, phi)
	time.Sleep(20 * hb)
	w.kill(0)
	time.Sleep(6 * hb)
	w.kill(1)
	survivors := []int{2, 3, 4}
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := true
		for _, r := range survivors {
			if !equalInts(w.dets[r].Dead(), []int{0, 1}) {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			for _, r := range survivors {
				t.Logf("rank %d: epoch=%d dead=%v suspected=%v", r, w.dets[r].Epoch(), w.dets[r].Dead(), w.dets[r].Suspected())
			}
			t.Fatal("survivors did not agree on both deaths after coordinator loss")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, r := range survivors {
		if n := w.dets[r].Detections(); n != 2 {
			t.Errorf("rank %d detections = %d, want 2", r, n)
		}
	}
}

// TestLateRankJoins: a world boots with one rank absent; the survivors
// agree it dead, then the rank comes up and Joins — adopting the committed
// epoch while the survivors mark it alive again.
func TestLateRankJoins(t *testing.T) {
	n := 4
	w := &world{nw: transport.NewNetwork(n), dets: make([]*Detector, n)}
	t.Cleanup(func() {
		for _, d := range w.dets {
			if d != nil {
				d.Close()
			}
		}
	})
	hb, phi := tuned(5*time.Millisecond, 6)
	for r := 0; r < 3; r++ {
		w.startRank(t, r, n, hb, phi)
	}
	w.awaitEpoch(t, []int{0, 1, 2}, 2, 10*time.Second)
	for _, r := range []int{0, 1, 2} {
		if dead := w.dets[r].Dead(); !equalInts(dead, []int{3}) {
			t.Fatalf("rank %d dead = %v, want [3]", r, dead)
		}
	}

	late := w.startRank(t, 3, n, hb, phi)
	epoch, err := late.Join(5 * time.Second)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if epoch < 2 {
		t.Fatalf("joined at epoch %d, want >= 2", epoch)
	}
	// Survivors must have marked rank 3 alive again on its hello.
	deadline := time.Now().Add(5 * time.Second)
	for {
		cleared := true
		for _, r := range []int{0, 1, 2} {
			if len(w.dets[r].Dead()) != 0 {
				cleared = false
			}
		}
		if cleared {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("survivors did not clear the rejoined rank from the dead set")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// And the world must stay stable afterwards (no oscillating suspicion
	// of the rejoined rank).
	time.Sleep(40 * hb)
	for r := 0; r < n; r++ {
		if dead := w.dets[r].Dead(); len(dead) != 0 {
			t.Errorf("rank %d dead = %v after rejoin, want none", r, dead)
		}
	}
}

// TestOnEpochCallback: the epoch callback delivers the transition exactly
// once per epoch with the newly dead ranks.
func TestOnEpochCallback(t *testing.T) {
	n := 4
	hb, phi := tuned(5*time.Millisecond, 6)
	nw := transport.NewNetwork(n)
	type event struct {
		epoch   uint64
		newDead []int
	}
	var mu sync.Mutex
	events := make(map[int][]event)
	dets := make([]*Detector, n)
	for r := 0; r < n; r++ {
		r := r
		d, err := New(Options{
			Self: r, Ranks: n, Net: nw,
			HeartbeatInterval: hb, PhiThreshold: phi,
			OnEpoch: func(epoch uint64, members member.Set, dead, newDead []int) {
				mu.Lock()
				events[r] = append(events[r], event{epoch, append([]int(nil), newDead...)})
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		dets[r] = d
		d.Start()
	}
	t.Cleanup(func() {
		for _, d := range dets {
			if d != nil {
				d.Close()
			}
		}
	})
	time.Sleep(20 * hb)
	dets[2].Close()
	dets[2] = nil
	nw.Kill(2)

	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		ok := len(events[0]) > 0 && len(events[1]) > 0 && len(events[3]) > 0
		mu.Unlock()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("epoch callbacks did not fire on all survivors")
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, r := range []int{0, 1, 3} {
		evs := events[r]
		if len(evs) != 1 {
			t.Errorf("rank %d saw %d epoch events, want 1 (%v)", r, len(evs), evs)
			continue
		}
		if evs[0].epoch != 2 || !equalInts(evs[0].newDead, []int{2}) {
			t.Errorf("rank %d event = %+v, want epoch 2 newDead [2]", r, evs[0])
		}
	}
}

// TestGrowThenDrain: a 4-member world with 6 address slots admits spare
// slot 4 via JoinNew (hello from a non-member is a join request folded
// into the next epoch agreement), then gracefully drains it again. Both
// transitions are ordinary epoch commits: quorum of the current
// membership, member list carried in the commit.
func TestGrowThenDrain(t *testing.T) {
	const capacity, boot = 6, 4
	hb, phi := tuned(5*time.Millisecond, 8)
	nw := transport.NewNetwork(capacity)
	dets := make([]*Detector, capacity)
	drained := make(chan uint64, 1)
	start := func(r int, members member.Set, onDrained func(uint64)) *Detector {
		d, err := New(Options{
			Self: r, Ranks: capacity, Members: members, Net: nw,
			HeartbeatInterval: hb, PhiThreshold: phi,
			OnDrained: onDrained,
			Logf:      func(format string, args ...any) { t.Logf("detect: "+format, args...) },
		})
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		dets[r] = d
		d.Start()
		return d
	}
	t.Cleanup(func() {
		for _, d := range dets {
			if d != nil {
				d.Close()
			}
		}
	})
	for r := 0; r < boot; r++ {
		start(r, member.Launch(boot), nil)
	}
	time.Sleep(20 * hb) // settle: no suspicion in the boot world

	// Grow: slot 4 boots with the membership it is NOT yet part of.
	spare := start(4, member.Launch(boot), func(e uint64) {
		select {
		case drained <- e:
		default:
		}
	})
	joinedAt, err := spare.JoinNew(10 * time.Second)
	if err != nil {
		t.Fatalf("JoinNew: %v", err)
	}
	if joinedAt < 2 {
		t.Fatalf("joined at epoch %d, want >= 2", joinedAt)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for r := 0; r <= 4; r++ {
			m := dets[r].Members()
			if !m.Contains(4) || m.Size() != 5 {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			for r := 0; r <= 4; r++ {
				t.Logf("rank %d: %s", r, dets[r].Members())
			}
			t.Fatal("world did not converge on the grown membership")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The grown world must be stable: no deaths, no residual suspicion.
	time.Sleep(30 * hb)
	for r := 0; r <= 4; r++ {
		if dead := dets[r].Dead(); len(dead) != 0 {
			t.Fatalf("rank %d dead = %v after grow, want none", r, dead)
		}
	}

	// Shrink: rank 0 requests a graceful drain of slot 4.
	if err := dets[0].Drain(4); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	select {
	case e := <-drained:
		if e < 3 {
			t.Fatalf("drained at epoch %d, want >= 3", e)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("OnDrained never fired on the drained rank")
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		ok := true
		for r := 0; r < boot; r++ {
			m := dets[r].Members()
			if m.Contains(4) || m.Size() != boot {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("world did not converge back to the boot membership")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// A drain is not a death: nobody's dead set or detection count moves.
	for r := 0; r < boot; r++ {
		if dead := dets[r].Dead(); len(dead) != 0 {
			t.Fatalf("rank %d dead = %v after drain, want none", r, dead)
		}
		if n := dets[r].Detections(); n != 0 {
			t.Fatalf("rank %d detections = %d after drain, want 0", r, n)
		}
	}
}

// TestDrainTargetMustBeMember: draining a slot outside the membership is
// an immediate error, not a stuck proposal.
func TestDrainTargetMustBeMember(t *testing.T) {
	hb, phi := tuned(5*time.Millisecond, 8)
	w := newWorld(t, 3, hb, phi)
	if err := w.dets[0].Drain(7); err == nil {
		t.Fatal("Drain(7) on a 3-member world should error")
	}
}
