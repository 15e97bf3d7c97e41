package stable

import (
	"bytes"
	"testing"
	"time"

	"c3/internal/member"
)

// TestCommitPlanGrouped: under a grouped topology every codec shard stays
// on a group-local successor and exactly one parity shard (index k+m)
// lands in the next group.
func TestCommitPlanGrouped(t *testing.T) {
	topo := member.NewTopology(member.Launch(12), 6)
	for owner := 0; owner < 12; owner++ {
		sendPlan, holders, parity := commitPlan(false, owner, 4, topo)
		if parity < 0 {
			t.Fatalf("owner %d: no parity holder", owner)
		}
		if topo.GroupOf(parity) == topo.GroupOf(owner) {
			t.Fatalf("owner %d: parity holder %d in own group", owner, parity)
		}
		seen := make(map[int]bool)
		for _, h := range holders {
			if seen[h] {
				t.Fatalf("owner %d: duplicate holder %d", owner, h)
			}
			seen[h] = true
			for _, idx := range sendPlan[h] {
				if idx == 4 {
					if h != parity {
						t.Fatalf("owner %d: parity shard on %d, parity holder %d", owner, h, parity)
					}
					continue
				}
				if topo.GroupOf(h) != topo.GroupOf(owner) {
					t.Fatalf("owner %d: codec shard %d left the group (holder %d)", owner, idx, h)
				}
				if h == owner {
					t.Fatalf("owner %d holds its own shard %d", owner, idx)
				}
			}
		}
	}
}

// TestReplicatedGroupLossRecoveredViaParity: rs k=3,m=1 plus one
// cross-group parity shard; all g ranks of one group fail at once (every
// group-local shard of their lines is gone) and each wiped rank's line
// must still reassemble — from the parity shard one group over.
func TestReplicatedGroupLossRecoveredViaParity(t *testing.T) {
	rs, err := NewCodec("rs", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n, g = 12, 6
	s := NewReplicatedStore(n, WithDistCodec(rs), WithDistGroupSize(g))
	defer s.Close()

	payloads := make(map[int][]byte)
	for r := 0; r < n; r++ {
		payload := make([]byte, 4_000+r)
		for i := range payload {
			payload[i] = byte(i*13 + r)
		}
		payloads[r] = payload
		writeCommitted(t, s, r, 1, map[string][]byte{"app": payload})
	}

	// Kill group 0 whole: ranks 0..5 lose everything at once.
	for r := 0; r < g; r++ {
		s.FailNode(r)
	}

	for r := 0; r < g; r++ {
		v, ok, err := s.LastCommitted(r)
		if err != nil || !ok || v != 1 {
			t.Fatalf("rank %d LastCommitted after group loss = %d,%v,%v; want 1,true,nil", r, v, ok, err)
		}
		snap, err := s.Open(r, 1)
		if err != nil {
			t.Fatalf("rank %d Open after group loss: %v", r, err)
		}
		got, err := snap.ReadSection("app")
		snap.Close()
		if err != nil || !bytes.Equal(got, payloads[r]) {
			t.Fatalf("rank %d reassembled %d bytes, err %v", r, len(got), err)
		}
	}
	// The survivors' group (group 1) lost only its parity shards; its own
	// lines still decode from group-local shards.
	for r := g; r < n; r++ {
		if v, ok, err := s.LastCommitted(r); err != nil || !ok || v != 1 {
			t.Fatalf("survivor %d LastCommitted = %d,%v,%v", r, v, ok, err)
		}
	}
}

// TestReplicatedGroupedRepartition: after a membership change under a
// grouped topology the old line stays where the old groups put it and
// still decodes, and the next line lands on the new group assignment —
// with its cross-group parity shard on the new next-group holder, which
// carries it through the loss of the owner's whole new group.
func TestReplicatedGroupedRepartition(t *testing.T) {
	rs, err := NewCodec("rs", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n, g = 12, 4
	s := NewReplicatedStore(n, WithDistCodec(rs), WithDistGroupSize(g))
	defer s.Close()
	old, payload := testBlob(5_000, 1), testBlob(5_000, 2)
	writeCommitted(t, s, 5, 1, map[string][]byte{"app": old})

	// Shrink across a group boundary: removing rank 2 re-partitions every
	// downstream group.
	m := s.nodes[0].Members().WithRemoved(2, 2)
	s.SetMembership(m)
	topo := member.NewTopology(m, g)
	if got := readApp(t, s, 5, 1); !bytes.Equal(got, old) {
		t.Fatal("the old line decoded to other bytes after the re-partition")
	}
	writeCommitted(t, s, 5, 2, map[string][]byte{"app": payload})

	parity := s.nodes[topo.ParityHolder(5)]
	parity.mu.Lock()
	rec, ok := parity.node.commits[replCommitKey{owner: 5, version: 2}]
	parity.mu.Unlock()
	if !ok {
		t.Fatalf("new parity holder %d has no marker for the next line", topo.ParityHolder(5))
	}
	if h, hasCross := rec.crossHolder(); !hasCross || h != topo.ParityHolder(5) {
		t.Fatalf("marker cross holder = %d,%v; want %d,true", h, hasCross, topo.ParityHolder(5))
	}
	for _, r := range topo.GroupMembers(topo.GroupOf(5)) {
		s.FailNode(r)
	}
	if got := readApp(t, s, 5, 2); !bytes.Equal(got, payload) {
		t.Fatal("the next line decoded to other bytes after its new group's loss")
	}
}

// TestDistStoreGroupLossRecoveredViaParity is the multi-process form: all
// g stores of one group are wiped (their processes died together) and the
// restarted owner reassembles its line over the wire from the parity
// shard held one group over.
func TestDistStoreGroupLossRecoveredViaParity(t *testing.T) {
	rs, err := NewCodec("rs", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n, g = 10, 5
	stores := distWorld(t, n, WithDistCodec(rs), WithDistGroupSize(g))
	payload := make([]byte, 8_000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	writeDistCommitted(t, stores[1], 1, 1, map[string][]byte{"app": payload})

	// Group 0 dies whole: owner and every group-local shard holder.
	for r := 0; r < g; r++ {
		stores[r].wipe()
	}

	v, ok, err := stores[1].LastCommitted(1)
	if err != nil || !ok || v != 1 {
		t.Fatalf("LastCommitted after group wipe = %d,%v,%v; want 1,true,nil", v, ok, err)
	}
	snap, err := stores[1].Open(1, 1)
	if err != nil {
		t.Fatalf("Open after group wipe: %v", err)
	}
	defer snap.Close()
	if got, err := snap.ReadSection("app"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("reassembled %d bytes, err %v", len(got), err)
	}
	if stores[1].Reassemblies() != 1 {
		t.Fatalf("Reassemblies = %d", stores[1].Reassemblies())
	}
}

// TestDistStoreCommitExcusesGroupDeadNeighbors: the satellite fix. With a
// whole neighbor group silent (a correlated loss far beyond the ≤m
// individual deaths the ring excusal assumed), a commit whose cross-group
// parity shard IS acknowledged must succeed after the ack timeout instead
// of failing the shard floor.
func TestDistStoreCommitExcusesGroupDeadNeighbors(t *testing.T) {
	rs, err := NewCodec("rs", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n, g = 10, 5
	stores := distWorld(t, n, WithDistCodec(rs), WithDistGroupSize(g),
		WithAckTimeout(200*time.Millisecond), WithQueryTimeout(200*time.Millisecond))

	// Rank 0's group-local holders are ranks 1..4; silence them all before
	// the commit so none of the k+m=4 codec shards is ever acknowledged.
	// The parity holder (group 1) stays alive.
	for r := 1; r < g; r++ {
		stores[r].net.Kill(r)
	}
	writeDistCommitted(t, stores[0], 0, 1, map[string][]byte{"app": []byte("group-dead-excusal")})

	// The line is recoverable — through the parity shard alone.
	snap, err := stores[0].Open(0, 1)
	if err != nil {
		t.Fatalf("Open after group-dead commit: %v", err)
	}
	defer snap.Close()
	if got, err := snap.ReadSection("app"); err != nil || string(got) != "group-dead-excusal" {
		t.Fatalf("ReadSection = %q, %v", got, err)
	}
}
