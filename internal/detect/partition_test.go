package detect

// Partition-tolerance tests: the quorum commit rule (only a side holding a
// strict majority of the launch-time world may commit an epoch), contact-
// lease fencing on the minority side, rejoin-after-heal, and the stale
// suspicion-gossip regression.

import (
	"fmt"
	"testing"
	"time"

	"c3/internal/transport"
)

// splitPairs returns every directed (from, to) pair crossing the cut
// between groupA and the rest of an n-rank world. It mirrors
// cluster.SplitPairs, duplicated here because cluster imports detect.
func splitPairs(groupA []int, n int) [][2]int {
	inA := make(map[int]bool, len(groupA))
	for _, r := range groupA {
		inA[r] = true
	}
	var pairs [][2]int
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b && inA[a] != inA[b] {
				pairs = append(pairs, [2]int{a, b})
			}
		}
	}
	return pairs
}

// containsAll reports whether sorted slice have includes every rank in want.
func containsAll(have, want []int) bool {
	set := make(map[int]bool, len(have))
	for _, r := range have {
		set[r] = true
	}
	for _, r := range want {
		if !set[r] {
			return false
		}
	}
	return true
}

// TestQuorumMatrix partitions every possible bipartition of worlds sized
// 3 through 7 and checks the quorum rule exhaustively: the side holding a
// strict majority (> n/2) of the launch-time world commits an epoch
// declaring the far side dead; the other side commits nothing — its
// coordinator stalls and its ranks fence. On an even split neither side
// has a majority and nobody ever commits.
func TestQuorumMatrix(t *testing.T) {
	// Every world shares the process, so bound how many run concurrently:
	// too many real-time detectors starve each other's heartbeat goroutines
	// into false suspicions (harmless for the assertions below, but noisy
	// and slow).
	sem := make(chan struct{}, 6)
	for n := 3; n <= 7; n++ {
		quorum := n/2 + 1
		// Enumerate each unordered bipartition once by keeping rank 0 in
		// group B: masks over ranks 1..n-1 choose group A.
		for mask := 1; mask < 1<<(n-1); mask++ {
			var groupA []int
			for r := 1; r < n; r++ {
				if mask&(1<<(r-1)) != 0 {
					groupA = append(groupA, r)
				}
			}
			var groupB []int
			for r := 0; r < n; r++ {
				if !containsAll(groupA, []int{r}) {
					groupB = append(groupB, r)
				}
			}
			name := fmt.Sprintf("n=%d/a=%v", n, groupA)
			n, groupA, groupB := n, groupA, groupB
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				sem <- struct{}{}
				defer func() { <-sem }()

				hb := tuned(5 * time.Millisecond)
				w := newWorld(t, n, hb)
				time.Sleep(10 * hb) // settle
				w.nw.SetPartition(splitPairs(groupA, n), false)

				var majority, minority []int
				switch {
				case len(groupA) >= quorum:
					majority, minority = groupA, groupB
				case len(groupB) >= quorum:
					majority, minority = groupB, groupA
				}

				if majority == nil {
					// Even split: neither side can assemble a quorum, so no
					// epoch may ever commit anywhere; every rank loses
					// majority contact and fences.
					w.awaitFenced(t, append(append([]int(nil), groupA...), groupB...), 15*time.Second)
					for r := 0; r < n; r++ {
						if e := w.dets[r].Epoch(); e != 1 {
							t.Errorf("rank %d epoch = %d on even split, want 1 (no quorum anywhere)", r, e)
						}
					}
					return
				}

				// Majority side: an epoch declaring the whole far side dead
				// must commit. (⊇, not ==: a scheduling hiccup can fold a
				// transient same-side suspicion into the dead set before the
				// protest clears it.)
				deadline := time.Now().Add(15 * time.Second)
				for {
					done := true
					for _, r := range majority {
						if !containsAll(w.dets[r].Dead(), minority) {
							done = false
							break
						}
					}
					if done {
						break
					}
					if time.Now().After(deadline) {
						for _, r := range majority {
							t.Logf("rank %d: epoch=%d dead=%v suspected=%v",
								r, w.dets[r].Epoch(), w.dets[r].Dead(), w.dets[r].Suspected())
						}
						t.Fatalf("majority %v did not commit the far side %v dead", majority, minority)
					}
					time.Sleep(2 * time.Millisecond)
				}
				// Minority side: no commit, ever — its epoch never leaves 1.
				w.awaitFenced(t, minority, 15*time.Second)
				for _, r := range minority {
					if e := w.dets[r].Epoch(); e != 1 {
						t.Errorf("minority rank %d epoch = %d, want 1 (must not commit without quorum)", r, e)
					}
				}
				for _, r := range majority {
					if w.dets[r].Fenced() {
						t.Errorf("majority rank %d is fenced", r)
					}
				}
			})
		}
	}
}

// awaitFenced polls until every listed rank reports Fenced().
func (w *world) awaitFenced(t *testing.T, ranks []int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		ok := true
		for _, r := range ranks {
			if !w.dets[r].Fenced() {
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
				status += fmt.Sprintf(" rank%d:fenced=%v suspected=%v;", r, w.dets[r].Fenced(), w.dets[r].Suspected())
			}
			t.Fatalf("ranks %v not all fenced within %v:%s", ranks, within, status)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestMinorityFencesAndHealsOnRejoin: a 2-rank minority severed from a
// 5-rank world fences (contact lease expires below quorum) while the
// majority commits it dead; at the heal the minority unfences, adopts the
// newer epoch through the fenced-probe/state exchange, and every rank
// converges back to an empty dead set.
func TestMinorityFencesAndHealsOnRejoin(t *testing.T) {
	hb := tuned(5 * time.Millisecond)
	w := newWorld(t, 5, hb)
	time.Sleep(10 * hb)
	w.nw.SetPartition(splitPairs([]int{3, 4}, 5), false)

	w.awaitFenced(t, []int{3, 4}, 10*time.Second)
	for _, r := range []int{0, 1, 2} {
		if w.dets[r].Fenced() {
			t.Errorf("majority rank %d fenced during split", r)
		}
	}
	// Majority agrees the minority dead.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if containsAll(w.dets[0].Dead(), []int{3, 4}) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("majority never declared [3 4] dead: dead=%v", w.dets[0].Dead())
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Minority committed nothing while split.
	for _, r := range []int{3, 4} {
		if e := w.dets[r].Epoch(); e != 1 {
			t.Fatalf("minority rank %d epoch = %d during split, want 1", r, e)
		}
	}

	w.nw.Heal()

	// Everyone converges: minority adopts the majority's epoch (its fenced
	// probes carry epoch 1; the majority replies with the newer state and
	// the hello broadcast un-deads the rank), fencing lifts, dead sets
	// empty out.
	deadline = time.Now().Add(15 * time.Second)
	for {
		ok := true
		for r := 0; r < 5; r++ {
			if len(w.dets[r].Dead()) != 0 || w.dets[r].Fenced() {
				ok = false
				break
			}
		}
		for _, r := range []int{3, 4} {
			if w.dets[r].Epoch() < 2 {
				ok = false
				break
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			for r := 0; r < 5; r++ {
				t.Logf("rank %d: epoch=%d dead=%v fenced=%v suspected=%v",
					r, w.dets[r].Epoch(), w.dets[r].Dead(), w.dets[r].Fenced(), w.dets[r].Suspected())
			}
			t.Fatal("world did not converge after heal")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// And stays converged (no suspicion/epoch oscillation from the rejoin).
	time.Sleep(30 * hb)
	for r := 0; r < 5; r++ {
		if dead := w.dets[r].Dead(); len(dead) != 0 {
			t.Errorf("rank %d dead = %v after settling, want none", r, dead)
		}
		if w.dets[r].Fenced() {
			t.Errorf("rank %d still fenced after heal", r)
		}
	}
}

// TestSameEpochDeadAndSuspectHeal: a shape a heal can leave behind. Both
// ranks are at the same epoch; rank 3 holds rank 4 dead (it adopted the
// epoch after rank 4's rejoin hello reached it) while rank 4 suspects rank
// 3. Pings used to skip dead and suspected peers, so neither sent the other
// anything and the world never converged.
func TestSameEpochDeadAndSuspectHeal(t *testing.T) {
	hb := tuned(5 * time.Millisecond)
	w := newWorld(t, 5, hb)
	time.Sleep(10 * hb)
	members := []int{0, 1, 2, 3, 4}
	for r, d := range w.dets {
		var dead []int
		if r == 3 {
			dead = []int{4}
		}
		d.applyEpoch(2, dead, members, "test")
	}
	d4 := w.dets[4]
	d4.mu.Lock()
	d4.suspectLocked(3, d4.clock(), CauseLease)
	d4.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for len(w.dets[3].Dead()) != 0 || len(d4.Suspected()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("never healed: rank 3 dead=%v, rank 4 suspects %v", w.dets[3].Dead(), d4.Suspected())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStaleSuspectGossipDropped: suspicion gossip is gated on the epoch
// number. A rank cleared by a newer epoch (here: rejoined after being
// agreed dead) must not be re-suspected by a reordered suspect frame from
// the superseded epoch — before the gate, the late frame re-entered the
// cleared rank into agreement and could commit it dead again.
func TestStaleSuspectGossipDropped(t *testing.T) {
	n := 4
	w := &world{nw: transport.NewNetwork(n), dets: make([]*Detector, n)}
	t.Cleanup(func() {
		for _, d := range w.dets {
			if d != nil {
				d.Close()
			}
		}
	})
	hb := tuned(5 * time.Millisecond)
	for r := 0; r < 3; r++ {
		w.startRank(t, r, n, hb)
	}
	// Boot without rank 3: epoch 2 commits it dead, then it joins and the
	// survivors clear it — exactly the "cleared by a newer epoch" state.
	w.awaitEpoch(t, []int{0, 1, 2}, 2, 10*time.Second)
	late := w.startRank(t, 3, n, hb)
	if _, err := late.Join(5 * time.Second); err != nil {
		t.Fatalf("join: %v", err)
	}
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
			t.Fatal("survivors did not clear the rejoined rank")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Replay a suspicion of rank 3 from the superseded epoch 1, as a
	// reordered network would deliver it. The receiving coordinator must
	// drop it instead of re-opening agreement on the cleared rank.
	if err := w.nw.Send(transport.Message{
		From: 2, To: 0, Class: transport.Control, Payload: encodeSuspect(1, 3, CauseLease),
	}); err != nil {
		t.Fatalf("inject stale suspect: %v", err)
	}

	time.Sleep(20 * hb)
	for _, r := range []int{0, 1, 2, 3} {
		if e := w.dets[r].Epoch(); e != 2 {
			t.Errorf("rank %d epoch = %d after stale gossip, want 2 (no new agreement)", r, e)
		}
		if dead := w.dets[r].Dead(); len(dead) != 0 {
			t.Errorf("rank %d dead = %v after stale gossip, want none", r, dead)
		}
	}
}

// TestFenceDeliveriesSettleOnCurrentState: fencing transitions are
// computed under the detector's lock on several goroutines and delivered
// after it is released, so they can be delivered in reverse order. The
// store must end up with the detector's current state, not with whichever
// delivery ran last: a store left fenced after the heal refuses every
// commit of the restored attempt, and the world waits for an epoch that
// never comes.
func TestFenceDeliveriesSettleOnCurrentState(t *testing.T) {
	var (
		delivered []bool
		store     bool
	)
	d, err := New(Options{Self: 0, Ranks: 3, Net: transport.NewNetwork(3),
		OnFence: func(fenced bool) { delivered, store = append(delivered, fenced), fenced }})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.mu.Lock()
	d.lastHeard[1], d.lastHeard[2] = time.Time{}, time.Time{} // silence: fence
	fence := d.refenceLocked()
	d.lastHeard[1], d.lastHeard[2] = d.clock(), d.clock() // contact again: unfence
	unfence := d.refenceLocked()
	d.mu.Unlock()
	if fence == nil || unfence == nil {
		t.Fatal("want two fencing transitions")
	}
	unfence()
	fence()
	if store != d.Fenced() {
		t.Fatalf("store fenced=%v after deliveries %v, detector fenced=%v", store, delivered, d.Fenced())
	}
}
