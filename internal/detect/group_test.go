package detect

import (
	"testing"
	"time"

	"c3/internal/member"
	"c3/internal/transport"
)

// newGroupedWorld is newWorld with a two-level topology of the given group
// size (and, optionally, a per-rank demux + relay wired under each
// detector when relayed is true).
func newGroupedWorld(t *testing.T, n, g int, hb time.Duration, relayed bool) *world {
	t.Helper()
	w := &world{nw: transport.NewNetwork(n), dets: make([]*Detector, n)}
	var closers []func()
	for r := 0; r < n; r++ {
		opts := Options{
			Self: r, Ranks: n, Net: w.nw, GroupSize: g,
			HeartbeatInterval: hb,
			Logf:              func(format string, args ...any) { t.Logf("detect: "+format, args...) },
		}
		if relayed {
			dm := transport.NewDemux(w.nw, r)
			opts.Net = dm.Plane(transport.WireKindDetect)
			rl := transport.NewRelay(dm)
			opts.Relay = rl
			dm.Start()
			rl.Start()
			closers = append(closers, rl.Close, dm.Close)
		}
		d, err := New(opts)
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		w.dets[r] = d
		d.Start()
	}
	t.Cleanup(func() {
		for _, d := range w.dets {
			if d != nil {
				d.Close()
			}
		}
		for _, c := range closers {
			c()
		}
	})
	return w
}

// TestGroupedCodecRoundtrips: the delegate report, and the relay forms of
// the agreement messages — a propose for a delegate to re-broadcast
// (hops=1), a delegate's aggregated votes, and a commit for a group's
// first live member to re-broadcast.
func TestGroupedCodecRoundtrips(t *testing.T) {
	e, groups, live, err := decodeReport(encodeReport(3, []int{2, 3, 0}, []int{4, 5}))
	if err != nil || e != 3 || !equalInts(groups, []int{2, 3, 0}) || !equalInts(live, []int{4, 5}) {
		t.Fatalf("report roundtrip: epoch=%d groups=%v live=%v err=%v", e, groups, live, err)
	}
	e, s, origin, hops, dead, members, err := decodePropose(encodePropose(4, 9, 2, 1, []int{7}, []int{0, 1, 2}))
	if err != nil || e != 4 || s != 9 || origin != 2 || hops != 1 ||
		!equalInts(dead, []int{7}) || !equalInts(members, []int{0, 1, 2}) {
		t.Fatalf("relayed propose roundtrip: epoch=%d seq=%d origin=%d hops=%d dead=%v members=%v err=%v",
			e, s, origin, hops, dead, members, err)
	}
	var ranks []int
	e, s, origin, ranks, err = decodeAck(encodeAck(4, 9, 2, []int{3, 4, 5}))
	if err != nil || e != 4 || s != 9 || origin != 2 || !equalInts(ranks, []int{3, 4, 5}) {
		t.Fatalf("aggregated ack roundtrip: epoch=%d seq=%d origin=%d ranks=%v err=%v", e, s, origin, ranks, err)
	}
	e, relay, dead, members, err := decodeCommit(encodeCommit(5, true, []int{2}, []int{0, 1, 3}))
	if err != nil || e != 5 || !relay || !equalInts(dead, []int{2}) || !equalInts(members, []int{0, 1, 3}) {
		t.Fatalf("relay commit roundtrip: epoch=%d relay=%v dead=%v members=%v err=%v", e, relay, dead, members, err)
	}
}

// TestGroupedFailureFreeStaysAtEpochOne: a grouped world with every rank
// alive commits no epochs and fences nobody — the report plumbing must be
// as quiet as the flat detector's heartbeats.
func TestGroupedFailureFreeStaysAtEpochOne(t *testing.T) {
	hb := tuned(5 * time.Millisecond)
	w := newGroupedWorld(t, 9, 3, hb, false)
	time.Sleep(80 * hb)
	for r, d := range w.dets {
		if e := d.Epoch(); e != 1 {
			t.Errorf("rank %d epoch = %d, want 1", r, e)
		}
		if d.Fenced() {
			t.Errorf("rank %d fenced in a failure-free grouped world", r)
		}
		if s := d.Suspected(); len(s) != 0 {
			t.Errorf("rank %d suspects %v", r, s)
		}
	}
}

// TestGroupedFailureDetection: one death in a 9-rank, 3-group world is
// agreed by every survivor — the intra-group ring detects it, the delegate
// relays carry the agreement.
func TestGroupedFailureDetection(t *testing.T) {
	hb := tuned(5 * time.Millisecond)
	w := newGroupedWorld(t, 9, 3, hb, false)
	time.Sleep(20 * hb)
	w.kill(4)
	survivors := []int{0, 1, 2, 3, 5, 6, 7, 8}
	w.awaitEpoch(t, survivors, 2, 30*time.Second)
	for _, r := range survivors {
		if dead := w.dets[r].Dead(); !equalInts(dead, []int{4}) {
			t.Errorf("rank %d dead = %v, want [4]", r, dead)
		}
	}
}

// TestGroupedWholeGroupLoss: a correlated whole-group failure (the fault
// the cross-group parity shard exists for) is detected by the OTHER
// groups' delegates via report staleness — no surviving rank held a lease
// on the dead group's interior — and committed while quorum holds (6 of 9).
func TestGroupedWholeGroupLoss(t *testing.T) {
	hb := tuned(5 * time.Millisecond)
	w := newGroupedWorld(t, 9, 3, hb, false)
	time.Sleep(20 * hb)
	for _, r := range []int{3, 4, 5} {
		w.kill(r)
	}
	survivors := []int{0, 1, 2, 6, 7, 8}
	w.awaitEpoch(t, survivors, 2, 30*time.Second)
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := true
		for _, r := range survivors {
			if !equalInts(w.dets[r].Dead(), []int{3, 4, 5}) {
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
			t.Fatal("survivors never agreed on the whole dead group")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, r := range survivors {
		if w.dets[r].Fenced() {
			t.Errorf("rank %d fenced after a committed whole-group loss", r)
		}
	}
}

// TestGroupedDelegateDeathDuringAgree: the delegate relaying an in-flight
// agreement dies mid-round. The per-tick retransmission recomputes runtime
// delegates, so the group's next member takes over the relay and the
// agreement still converges.
func TestGroupedDelegateDeathDuringAgree(t *testing.T) {
	hb := tuned(5 * time.Millisecond)
	w := newGroupedWorld(t, 12, 3, hb, false)
	time.Sleep(20 * hb)
	// Group 2 is {6,7,8}; 6 is its designated delegate. Kill an interior
	// member first, then the delegate while the agreement is in flight.
	w.kill(7)
	time.Sleep(4 * hb)
	w.kill(6)
	survivors := []int{0, 1, 2, 3, 4, 5, 8, 9, 10, 11}
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := true
		for _, r := range survivors {
			dead := w.dets[r].Dead()
			if !equalInts(dead, []int{6, 7}) {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			for _, r := range survivors {
				t.Logf("rank %d: epoch=%d dead=%v suspected=%v",
					r, w.dets[r].Epoch(), w.dets[r].Dead(), w.dets[r].Suspected())
			}
			t.Fatal("agreement never converged on {6,7} after the delegate died mid-round")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestGroupedDetectionWithRelay: the full two-level wiring — demux, relay
// router, grouped detector — detects and agrees a failure, with the
// detector's cross-group unicasts routed through delegates.
func TestGroupedDetectionWithRelay(t *testing.T) {
	hb := tuned(5 * time.Millisecond)
	w := newGroupedWorld(t, 9, 3, hb, true)
	time.Sleep(20 * hb)
	w.kill(4)
	survivors := []int{0, 1, 2, 3, 5, 6, 7, 8}
	w.awaitEpoch(t, survivors, 2, 30*time.Second)
	for _, r := range survivors {
		if dead := w.dets[r].Dead(); !equalInts(dead, []int{4}) {
			t.Errorf("rank %d dead = %v, want [4]", r, dead)
		}
	}
}

// TestGroupedGossipFanOutBounded is the satellite message-bound regression:
// in a grouped world each suspicion gossips to at most (g-1) + (ng-1)
// targets — the live group plus the other delegates — and every target is
// inside that set, while the flat detector gossips to all n-1. The O(g +
// world/g) fan-out is the load bound the two-level refactor exists for.
func TestGroupedGossipFanOutBounded(t *testing.T) {
	const n, g = 64, 8
	nw := transport.NewNetwork(n)
	defer nw.Shutdown()
	d, err := New(Options{Self: 9, Ranks: n, Net: nw, GroupSize: g})
	if err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	targets := d.gossipTargetsLocked(nil)
	topo := d.topo
	d.mu.Unlock()
	bound := (g - 1) + (n/g - 1)
	if len(targets) > bound {
		t.Fatalf("grouped gossip fan-out %d exceeds (g-1)+(ng-1) = %d", len(targets), bound)
	}
	allowed := make(map[int]bool)
	for _, r := range topo.GroupMembers(topo.GroupOf(9)) {
		allowed[r] = true
	}
	for gid := 0; gid < topo.NumGroups(); gid++ {
		allowed[topo.Delegate(gid)] = true
	}
	for _, tr := range targets {
		if !allowed[tr] {
			t.Errorf("gossip target %d is neither in rank 9's group nor a delegate", tr)
		}
	}

	flat, err := New(Options{Self: 9, Ranks: n, Net: nw})
	if err != nil {
		t.Fatal(err)
	}
	flat.mu.Lock()
	flatTargets := flat.gossipTargetsLocked(nil)
	flat.mu.Unlock()
	if len(flatTargets) != n-1 {
		t.Fatalf("flat gossip fan-out = %d, want %d", len(flatTargets), n-1)
	}
	if len(targets) >= len(flatTargets)/3 {
		t.Fatalf("grouped fan-out %d is not materially below flat %d", len(targets), len(flatTargets))
	}
}

// TestGroupedSteadyStateMessageBound pins the O(g) steady-state send rate:
// over two lease horizons of ticks, every lease ping a grouped rank sends
// goes to its own group regardless of world size, no peer is pinged twice
// within a third of the lease, and every group peer is pinged.
func TestGroupedSteadyStateMessageBound(t *testing.T) {
	const n, g, self = 128, 8, 17
	nw := transport.NewNetwork(n)
	defer nw.Shutdown()
	now := time.Unix(1000, 0)
	d, err := New(Options{Self: self, Ranks: n, Net: nw, GroupSize: g,
		Clock: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	inGroup := make(map[int]bool)
	for _, r := range d.topo.GroupMembers(d.topo.GroupOf(self)) {
		inGroup[r] = true
	}
	if len(inGroup) != g {
		t.Fatalf("group size = %d, want %d", len(inGroup), g)
	}
	last := make(map[int]time.Time)
	for end := now.Add(2 * d.lease); now.Before(end); now = now.Add(d.interval) {
		for _, r := range d.leasePingsLocked(now) {
			if !inGroup[r] || r == self {
				t.Fatalf("lease ping to rank %d outside own group", r)
			}
			if prev, ok := last[r]; ok && now.Sub(prev) < d.lease/3 {
				t.Fatalf("rank %d pinged twice within %v (at %v and %v)", r, d.lease/3, prev, now)
			}
			last[r] = now
		}
	}
	if len(last) != g-1 {
		t.Fatalf("pinged %d group peers over two leases, want all %d", len(last), g-1)
	}
}

// TestGroupedTopologyAccessor: the detector exposes its current topology,
// and re-derives it when an epoch changes the membership.
func TestGroupedTopologyAccessor(t *testing.T) {
	hb := tuned(5 * time.Millisecond)
	w := newGroupedWorld(t, 6, 3, hb, false)
	topo := w.dets[0].Topology()
	if topo.NumGroups() != 2 || topo.GroupSize() != 3 {
		t.Fatalf("boot topology = %s, want 2 groups of 3", topo.String())
	}
	w.kill(5)
	w.awaitEpoch(t, []int{0, 1, 2, 3, 4}, 2, 30*time.Second)
	topo = w.dets[0].Topology()
	if got := topo.Epoch(); got < 2 {
		t.Fatalf("topology epoch after commit = %d, want >= 2", got)
	}
	if !member.NewTopology(w.dets[0].Members(), 3).SameGroups(topo) {
		t.Fatalf("topology out of sync with membership: %s", topo.String())
	}
}

// TestRelayedAckCountsOnlyForItsCoordinator: a delegate's vote aggregate
// belongs to one coordinator's proposal. Rank 2 relays coordinator 0's
// proposal (epoch 2, seq 1); a vote from rank 3 on rank 2's own proposal
// with the same (epoch, seq) must not join that aggregate and reach rank 0.
func TestRelayedAckCountsOnlyForItsCoordinator(t *testing.T) {
	const n, g = 6, 3
	nw := transport.NewNetwork(n)
	defer nw.Shutdown()
	d, err := New(Options{Self: 2, Ranks: n, Net: nw, GroupSize: g, HeartbeatInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Rank 2 has not heard from the proposed-dead rank lately, so it votes.
	d.mu.Lock()
	d.lastHeard[5] = time.Time{}
	d.mu.Unlock()
	d.handle(0, encodePropose(2, 1, 0, 1, []int{5}, []int{0, 1, 2, 3, 4, 5}))
	d.handle(3, encodeAck(2, 1, 2, []int{3}))

	ep := nw.Endpoint(0)
	votes := 0
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		msg, ok, _ := ep.TryRecv()
		if !ok {
			time.Sleep(time.Millisecond)
			continue
		}
		p, _ := msg.Payload.(payload)
		if len(p) == 0 || p[0] != msgAck {
			continue
		}
		_, _, origin, ranks, err := decodeAck(p)
		if err != nil || origin != 0 {
			t.Fatalf("ack to coordinator 0: origin=%d ranks=%v err=%v", origin, ranks, err)
		}
		votes++
		for _, r := range ranks {
			if r == 3 {
				t.Fatalf("rank 3's vote on rank 2's own proposal reached coordinator 0: %v", ranks)
			}
		}
	}
	if votes == 0 {
		t.Fatal("the relay never sent its own vote to coordinator 0")
	}
}

// TestGroupedGrowOneGroupIntoTwo: a one-group world (members {0,1,2},
// group size 3) admits slot 3, which opens a second group. The commit
// reaches the new group as a relay commit; every rank must converge on the
// same epoch and member list, and nobody may fence.
func TestGroupedGrowOneGroupIntoTwo(t *testing.T) {
	const capacity, g = 4, 3
	hb := tuned(5 * time.Millisecond)
	nw := transport.NewNetwork(capacity)
	dets := make([]*Detector, capacity)
	boot := member.Launch(3)
	for r := 0; r < capacity; r++ {
		d, err := New(Options{
			Self: r, Ranks: capacity, Members: boot, Net: nw, GroupSize: g,
			HeartbeatInterval: hb,
			Logf:              func(format string, args ...any) { t.Logf("detect: "+format, args...) },
		})
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		dets[r] = d
		d.Start()
	}
	t.Cleanup(func() {
		for _, d := range dets {
			d.Close()
		}
	})
	if _, err := dets[3].JoinNew(10 * time.Second); err != nil {
		t.Fatalf("JoinNew: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		want := dets[0].Epoch()
		ok := dets[0].Members().Size() == capacity
		for _, d := range dets {
			if d.Epoch() != want || !equalInts(d.Members().Members(), []int{0, 1, 2, 3}) {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			for r, d := range dets {
				t.Logf("rank %d: epoch=%d %s", r, d.Epoch(), d.Members())
			}
			t.Fatal("the world did not converge on the two-group membership")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Let a few lease horizons pass under the two-group topology.
	time.Sleep(30 * hb)
	for r, d := range dets {
		if d.Fenced() {
			t.Errorf("rank %d fenced after the grow", r)
		}
		if topo := d.Topology(); topo.NumGroups() != 2 {
			t.Errorf("rank %d topology %s, want 2 groups", r, topo.String())
		}
		if dead := d.Dead(); len(dead) != 0 {
			t.Errorf("rank %d dead = %v after the grow, want none", r, dead)
		}
	}
}
