package detect

// Loss-report tests on the in-memory network: a confirmed connection loss
// commits the epoch within two heartbeat intervals, a loss report about a
// live rank is cleared by its protest, and grouped worlds follow the
// gossip adoption rule.

import (
	"testing"
	"time"

	"c3/internal/transport"
)

// newDemuxWorld is newWorld with each detector behind its own demux, fed by
// the demux observers (ObserveVia) as in the multi-process runtime.
func newDemuxWorld(t *testing.T, n int, hb time.Duration) *world {
	t.Helper()
	w := &world{nw: transport.NewNetwork(n), dets: make([]*Detector, n)}
	for r := 0; r < n; r++ {
		dm := transport.NewDemux(w.nw, r)
		d, err := New(Options{
			Self: r, Ranks: n, Net: dm.Plane(transport.WireKindDetect),
			HeartbeatInterval: hb,
			Logf:              func(format string, args ...any) { t.Logf("detect: "+format, args...) },
		})
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		d.ObserveVia(dm)
		dm.Start()
		d.Start()
		w.dets[r] = d
	}
	t.Cleanup(func() {
		for _, d := range w.dets {
			if d != nil {
				d.Close()
			}
		}
		w.nw.Shutdown()
	})
	return w
}

// TestLossReportCommitsWithinTwoHeartbeats: a killed rank's last frames
// followed by a loss report, delivered in band to every survivor, commit
// the death within two heartbeat intervals — long before the lease could.
// The frames ahead of the report are observed before it, once, so they
// cannot clear the suspicion it raises.
func TestLossReportCommitsWithinTwoHeartbeats(t *testing.T) {
	hb := tuned(25 * time.Millisecond)
	w := newDemuxWorld(t, 4, hb)
	time.Sleep(20 * hb)

	const victim = 2
	survivors := []int{0, 1, 3}
	w.kill(victim)
	// Let the closed detector's last frames land, since a crashed process
	// sends nothing after its death and its connections' last frames come
	// before the loss report.
	time.Sleep(hb)
	start := time.Now()
	for _, s := range survivors {
		for i := 0; i < 3; i++ {
			if err := w.nw.Send(transport.Message{From: victim, To: s, Class: transport.Control, Payload: encodePing(1)}); err != nil {
				t.Fatalf("late frame: %v", err)
			}
		}
		if err := w.nw.Send(transport.Message{From: victim, To: s, Class: transport.Control, Payload: transport.PeerLost{}}); err != nil {
			t.Fatalf("loss report: %v", err)
		}
	}
	w.awaitEpoch(t, survivors, 2, 10*time.Second)
	if took := time.Since(start); took > 2*hb {
		t.Errorf("loss report -> committed epoch took %v, want <= 2 heartbeat intervals (%v)", took, 2*hb)
	}
	for _, s := range survivors {
		d := w.dets[s]
		if dead := d.Dead(); !equalInts(dead, []int{victim}) {
			t.Errorf("rank %d dead = %v, want [%d]", s, dead, victim)
		}
		if c := d.Times().Cause; c != CauseLoss {
			t.Errorf("rank %d detect cause = %s, want loss", s, c)
		}
		if n := d.Suspicions()[CauseLoss]; n != 1 {
			t.Errorf("rank %d loss suspicions = %d, want 1", s, n)
		}
	}
}

// TestLossReportOfLiveRankIsCleared: a loss report is a hint, not a
// verdict. Reported about a live rank, it is gossiped to that rank, whose
// protest clears it; the other ranks, which keep hearing from it, neither
// adopt it nor vote for it. Nobody is evicted and the epoch stays put.
func TestLossReportOfLiveRankIsCleared(t *testing.T) {
	hb := tuned(5 * time.Millisecond)
	w := newWorld(t, 4, hb)
	time.Sleep(20 * hb)

	w.dets[0].ObserveLost(1)
	if n := w.dets[0].Suspicions()[CauseLoss]; n != 1 {
		t.Fatalf("rank 0 loss suspicions = %d, want 1", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(w.dets[0].Suspected()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("rank 0 still suspects %v: the live rank's protest never cleared it", w.dets[0].Suspected())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * hb)
	for r, d := range w.dets {
		if e := d.Epoch(); e != 1 {
			t.Errorf("rank %d epoch = %d, want 1 (a live rank was voted dead)", r, e)
		}
		if dead := d.Dead(); len(dead) != 0 {
			t.Errorf("rank %d dead = %v, want none", r, dead)
		}
	}
}

// TestLossReportGroupedAdoption: in a grouped world a loss report follows
// the suspect-gossip adoption rule. A non-delegate ignores a rank of
// another group (it could never receive the evidence that clears it); a
// delegate adopts it and drives the agreement.
func TestLossReportGroupedAdoption(t *testing.T) {
	hb := tuned(5 * time.Millisecond)
	w := newGroupedWorld(t, 9, 3, hb, false)
	time.Sleep(20 * hb)
	const victim = 4 // group 1 = {3,4,5}; group 0 = {0,1,2} with delegate 0
	w.kill(victim)

	w.dets[1].ObserveLost(victim)
	if s := w.dets[1].Suspected(); len(s) != 0 {
		t.Fatalf("non-delegate rank 1 adopted a cross-group loss report: suspects %v", s)
	}
	w.dets[0].ObserveLost(victim)
	if n := w.dets[0].Suspicions()[CauseLoss]; n != 1 {
		t.Fatalf("delegate rank 0 loss suspicions = %d, want 1 (report not adopted)", n)
	}
	survivors := []int{0, 1, 2, 3, 5, 6, 7, 8}
	w.awaitEpoch(t, survivors, 2, 30*time.Second)
	for _, r := range survivors {
		if dead := w.dets[r].Dead(); !equalInts(dead, []int{victim}) {
			t.Errorf("rank %d dead = %v, want [%d]", r, dead, victim)
		}
	}
	if n := w.dets[1].Suspicions()[CauseLoss]; n != 0 {
		t.Errorf("non-delegate rank 1 loss suspicions = %d, want 0", n)
	}
}
