package member

import (
	"reflect"
	"testing"
)

func TestTopologyFlatDegeneration(t *testing.T) {
	s := Launch(8)
	for _, g := range []int{0, 1, 8, 100} {
		topo := NewTopology(s, g)
		if !topo.Flat() || topo.NumGroups() != 1 {
			t.Fatalf("g=%d: expected flat single group, got %d groups", g, topo.NumGroups())
		}
		for r := 0; r < 8; r++ {
			if gid := topo.GroupOf(r); gid != 0 {
				t.Fatalf("g=%d: GroupOf(%d)=%d", g, r, gid)
			}
			if h := topo.ParityHolder(r); h != -1 {
				t.Fatalf("g=%d: flat topology must have no parity holder, got %d", g, h)
			}
		}
	}
}

func TestTopologyAssignment(t *testing.T) {
	topo := NewTopology(Launch(10), 4) // groups [0..3] [4..7] [8 9]
	if topo.NumGroups() != 3 {
		t.Fatalf("NumGroups=%d want 3", topo.NumGroups())
	}
	wantGroups := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9}}
	for gid, want := range wantGroups {
		if got := topo.GroupMembers(gid); !reflect.DeepEqual(got, want) {
			t.Fatalf("GroupMembers(%d)=%v want %v", gid, got, want)
		}
		for _, r := range want {
			if topo.GroupOf(r) != gid {
				t.Fatalf("GroupOf(%d)=%d want %d", r, topo.GroupOf(r), gid)
			}
		}
	}
	if got := topo.Delegates(); !reflect.DeepEqual(got, []int{0, 4, 8}) {
		t.Fatalf("Delegates=%v", got)
	}
}

func TestTopologyParityHolderCrossesGroups(t *testing.T) {
	topo := NewTopology(Launch(12), 4)
	for r := 0; r < 12; r++ {
		h := topo.ParityHolder(r)
		if h < 0 {
			t.Fatalf("ParityHolder(%d)=%d", r, h)
		}
		if topo.GroupOf(h) == topo.GroupOf(r) {
			t.Fatalf("parity holder %d of %d is in the same group", h, r)
		}
		if want := (topo.GroupOf(r) + 1) % topo.NumGroups(); topo.GroupOf(h) != want {
			t.Fatalf("parity holder %d of %d in group %d want %d", h, r, topo.GroupOf(h), want)
		}
	}
	// Position-preserving: rank 1 (pos 1 of group 0) -> rank 5 (pos 1 of group 1).
	if h := topo.ParityHolder(1); h != 5 {
		t.Fatalf("ParityHolder(1)=%d want 5", h)
	}
	// Ragged last group wraps by the holder group's own size.
	ragged := NewTopology(Launch(10), 4)     // holder group {8 9} for group 1
	if h := ragged.ParityHolder(7); h != 9 { // pos 3 % 2 = 1 -> slot 9
		t.Fatalf("ragged ParityHolder(7)=%d want 9", h)
	}
	if h := ragged.ParityHolder(8); h != 0 { // group 2 wraps to group 0
		t.Fatalf("ragged ParityHolder(8)=%d want 0", h)
	}
}

// A grow or shrink that crosses a group boundary re-partitions every
// group downstream of the change, and the new assignment is stamped with
// the committing epoch — the same epoch sequence membership itself uses,
// so the re-partition lands wherever the membership change lands (a
// recovery line; see stable.SetMembership).
func TestTopologyRepartitionAcrossGroupBoundary(t *testing.T) {
	s := Launch(8)
	topo := NewTopology(s, 4) // [0..3] [4..7]
	if topo.NumGroups() != 2 || topo.GroupOf(4) != 1 {
		t.Fatalf("seed topology wrong: %v", topo)
	}

	// Shrink across the boundary: removing slot 2 slides 4 into group 0.
	shrunk := NewTopology(s.WithRemoved(5, 2), 4)
	if shrunk.Epoch() != 5 {
		t.Fatalf("shrunk epoch=%d want 5", shrunk.Epoch())
	}
	if got := shrunk.GroupMembers(0); !reflect.DeepEqual(got, []int{0, 1, 3, 4}) {
		t.Fatalf("shrunk group 0 = %v", got)
	}
	if got := shrunk.GroupMembers(1); !reflect.DeepEqual(got, []int{5, 6, 7}) {
		t.Fatalf("shrunk group 1 = %v", got)
	}
	if shrunk.GroupOf(4) != 0 {
		t.Fatalf("slot 4 did not re-partition into group 0")
	}
	if shrunk.SameGroups(topo) {
		t.Fatalf("boundary-crossing shrink must change the group assignment")
	}

	// Grow across the boundary: joining slots 8 and 9 opens group 2.
	grown := NewTopology(s.WithJoined(6, 8, 9), 4)
	if grown.NumGroups() != 3 {
		t.Fatalf("grown NumGroups=%d want 3", grown.NumGroups())
	}
	if got := grown.GroupMembers(2); !reflect.DeepEqual(got, []int{8, 9}) {
		t.Fatalf("grown group 2 = %v", got)
	}
	// The pre-existing groups are untouched by an append-only grow.
	for gid := 0; gid < 2; gid++ {
		if got, want := grown.GroupMembers(gid), topo.GroupMembers(gid); !reflect.DeepEqual(got, want) {
			t.Fatalf("grow disturbed group %d: %v want %v", gid, got, want)
		}
	}
	// A flat topology and a grouped one never compare equal.
	if grown.SameGroups(NewTopology(s.WithJoined(6, 8, 9), 0)) {
		t.Fatalf("grouped vs flat must differ")
	}
}

func TestTopologyNonMemberSlotsStayTotal(t *testing.T) {
	topo := NewTopology(New(3, []int{0, 1, 2, 4, 5, 6}), 3)
	// Slot 3 drained: it maps through its insertion point into group 1.
	if gid := topo.GroupOf(3); gid != 1 {
		t.Fatalf("GroupOf(drained 3)=%d want 1", gid)
	}
	if h := topo.ParityHolder(3); topo.GroupOf(h) != 0 {
		t.Fatalf("drained slot parity holder %d not in next group", h)
	}
}
