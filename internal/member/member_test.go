package member

import (
	"reflect"
	"testing"
)

// legacyShardHolder is the fixed-world placement formula the stable store
// used before membership became a runtime variable. The ring-generalized
// ShardHolder must reduce to it exactly when the members are 0..n-1, or
// every committed line would silently change holders on upgrade.
func legacyShardHolder(owner, idx, shards, n int) int {
	span := shards
	if span > n-1 {
		span = n - 1
	}
	pos := (idx + owner) % shards % span
	return (owner + 1 + pos) % n
}

func TestLaunch(t *testing.T) {
	s := Launch(4)
	if s.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", s.Epoch())
	}
	if got := s.Members(); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("members = %v", got)
	}
	if s.Quorum() != 3 {
		t.Fatalf("quorum = %d, want 3", s.Quorum())
	}
}

func TestNewSortsAndDedupes(t *testing.T) {
	s := New(7, []int{5, 1, 3, 1, 5})
	if got := s.Members(); !reflect.DeepEqual(got, []int{1, 3, 5}) {
		t.Fatalf("members = %v", got)
	}
	if s.Epoch() != 7 {
		t.Fatalf("epoch = %d", s.Epoch())
	}
}

func TestIndexContains(t *testing.T) {
	s := New(1, []int{0, 2, 5})
	if !s.Contains(2) || s.Contains(3) {
		t.Fatal("Contains wrong")
	}
	if i, ok := s.Index(5); !ok || i != 2 {
		t.Fatalf("Index(5) = %d,%v", i, ok)
	}
	if _, ok := s.Index(4); ok {
		t.Fatal("Index(4) should miss")
	}
}

func TestShardHolderReducesToLegacy(t *testing.T) {
	for n := 2; n <= 9; n++ {
		s := Launch(n)
		for shards := 1; shards <= 8; shards++ {
			for owner := 0; owner < n; owner++ {
				for idx := 0; idx < shards; idx++ {
					got := s.ShardHolder(owner, idx, shards)
					want := legacyShardHolder(owner, idx, shards, n)
					if got != want {
						t.Fatalf("n=%d shards=%d owner=%d idx=%d: got %d want %d",
							n, shards, owner, idx, got, want)
					}
				}
			}
		}
	}
}

func TestShardHolderNeverOwner(t *testing.T) {
	s := New(1, []int{0, 2, 3, 6, 7})
	for _, owner := range s.Members() {
		for shards := 1; shards <= 8; shards++ {
			if s.Size() < 2 {
				continue
			}
			for idx := 0; idx < shards; idx++ {
				if h := s.ShardHolder(owner, idx, shards); h == owner {
					t.Fatalf("owner %d holds own shard %d/%d", owner, idx, shards)
				}
			}
		}
	}
}

func TestShardPlanDistinctHolders(t *testing.T) {
	// With at least shards+1 members every shard gets its own holder.
	s := New(1, []int{1, 2, 4, 5, 8, 9, 10})
	holderOf, holders := s.ShardPlan(4, 6)
	if len(holders) != 6 {
		t.Fatalf("holders = %v, want 6 distinct", holders)
	}
	seen := map[int]bool{}
	for _, h := range holderOf {
		if !s.Contains(h) {
			t.Fatalf("holder %d not a member", h)
		}
		seen[h] = true
	}
	if len(seen) != 6 {
		t.Fatalf("holderOf %v not distinct", holderOf)
	}
}

func TestJoinRemoveDerivation(t *testing.T) {
	s := Launch(4)
	g := s.WithJoined(3, 5, 4)
	if got := g.Members(); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("grown members = %v", got)
	}
	if g.Epoch() != 3 {
		t.Fatalf("grown epoch = %d", g.Epoch())
	}
	if g.Quorum() != 4 {
		t.Fatalf("grown quorum = %d, want 4", g.Quorum())
	}
	sh := g.WithRemoved(5, 4, 5)
	if !sh.SameMembers(s) {
		t.Fatalf("shrunk members = %v", sh.Members())
	}
	if sh.Epoch() != 5 {
		t.Fatalf("shrunk epoch = %d", sh.Epoch())
	}
	// Immutability: the originals are untouched.
	if s.Size() != 4 || g.Size() != 6 {
		t.Fatal("derivation mutated its input")
	}
}

func TestEqualAndWithEpoch(t *testing.T) {
	a := Launch(3)
	b := a.WithEpoch(4)
	if a.Equal(b) {
		t.Fatal("different epochs should not be Equal")
	}
	if !a.SameMembers(b) {
		t.Fatal("SameMembers should hold")
	}
	if !b.Equal(New(4, []int{0, 1, 2})) {
		t.Fatal("Equal should hold")
	}
}

func TestMaxAndEmpty(t *testing.T) {
	var z Set
	if z.Max() != -1 || z.Size() != 0 || z.Quorum() != 1 {
		t.Fatalf("zero set: max=%d size=%d quorum=%d", z.Max(), z.Size(), z.Quorum())
	}
	if got := New(1, []int{3, 9, 4}).Max(); got != 9 {
		t.Fatalf("Max = %d", got)
	}
}

func TestQuorumMajorityAcrossSizes(t *testing.T) {
	for n := 1; n <= 9; n++ {
		q := Launch(n).Quorum()
		if 2*q <= n {
			t.Fatalf("n=%d quorum %d is not a strict majority", n, q)
		}
		if 2*(q-1) > n {
			t.Fatalf("n=%d quorum %d is larger than minimal majority", n, q)
		}
	}
}
