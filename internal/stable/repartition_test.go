package stable

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"c3/internal/member"
)

// repartitionCodecs is the codec-geometry sweep of the elastic re-partition
// matrix: the default dup geometry plus one representative of every
// parity budget the store supports, keyed by a label of the preset's
// position in (dup, xor, rs) and its NewCodec arguments.
func repartitionCodecs(t *testing.T) map[string]Codec {
	t.Helper()
	specs := []struct {
		preset int
		k, m   int
	}{{0, 2, 0}, {1, 2, 1}, {1, 4, 1}, {2, 2, 2}, {2, 4, 2}}
	codecs := make(map[string]Codec, len(specs))
	for _, sp := range specs {
		c, err := NewCodec([]string{"dup", "xor", "rs"}[sp.preset], sp.k, sp.m)
		if err != nil {
			t.Fatalf("codec %d(%d,%d): %v", sp.preset, sp.k, sp.m, err)
		}
		codecs[fmt.Sprintf("codec%d-k%d-m%d", sp.preset, sp.k, sp.m)] = c
	}
	return codecs
}

// lossCombos enumerates every subset of at most m indexes out of n — the
// loss patterns a codec with m parity shards must tolerate.
func lossCombos(n, m int) [][]int {
	combos := [][]int{nil}
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		for i := start; i < n; i++ {
			next := append(append([]int(nil), cur...), i)
			combos = append(combos, next)
			if len(next) < m {
				rec(i+1, next)
			}
		}
	}
	if m > 0 {
		rec(0, nil)
	}
	return combos
}

// lineRec returns the commit marker some node holds for (owner, version).
func lineRec(s *ReplicatedStore, owner, version int) (replCommitRec, bool) {
	for _, node := range s.nodes {
		node.mu.Lock()
		rec, ok := node.node.commits[replCommitKey{owner: owner, version: version}]
		node.mu.Unlock()
		if ok {
			return rec, true
		}
	}
	return replCommitRec{}, false
}

// loseHolders hides (owner, version) — marker and shards — from the given
// holders, and the owner's local copy, returning an undo closure.
func loseHolders(s *ReplicatedStore, owner, version int, lost []int) func() {
	type stash struct {
		frags  map[replFragKey][]byte
		marker *replCommitRec
	}
	ckey := replCommitKey{owner: owner, version: version}
	saved := make(map[int]stash, len(lost))
	for _, h := range lost {
		node := s.nodes[h]
		st := stash{frags: make(map[replFragKey][]byte)}
		node.mu.Lock()
		for key, frag := range node.node.frags {
			if key.owner == owner && key.version == version {
				st.frags[key] = frag
				delete(node.node.frags, key)
			}
		}
		if rec, ok := node.node.commits[ckey]; ok {
			st.marker = &rec
			delete(node.node.commits, ckey)
		}
		node.mu.Unlock()
		saved[h] = st
	}
	dropLocal := func() {
		o := s.nodes[owner]
		o.mu.Lock()
		delete(o.node.local, version)
		o.mu.Unlock()
	}
	dropLocal()
	return func() {
		// Open re-installs a reassembled local copy; discard it so the next
		// loss pattern exercises reassembly again, then restore the stash.
		dropLocal()
		for h, st := range saved {
			node := s.nodes[h]
			node.mu.Lock()
			for key, frag := range st.frags {
				node.node.frags[key] = frag
			}
			if st.marker != nil {
				node.node.commits[ckey] = *st.marker
			}
			node.mu.Unlock()
		}
	}
}

// assertPlacement checks that every shard of (owner, version) sits on the
// holder the member ring m assigns it.
func assertPlacement(t *testing.T, s *ReplicatedStore, m member.Set, owner, version int) {
	t.Helper()
	rec, ok := lineRec(s, owner, version)
	if !ok {
		t.Fatalf("owner %d version %d: no commit marker", owner, version)
	}
	sendPlan, holders, _ := commitPlan(rec.data == 1, owner, rec.frags, member.NewTopology(m, 0))
	for _, h := range holders {
		node := s.nodes[h]
		node.mu.Lock()
		_, marked := node.node.commits[replCommitKey{owner: owner, version: version}]
		var missing []int
		for _, idx := range sendPlan[h] {
			if frag, ok := node.node.frags[replFragKey{owner: owner, version: version, idx: idx}]; !ok || !rec.shardValid(idx, frag) {
				missing = append(missing, idx)
			}
		}
		node.mu.Unlock()
		if !marked || len(missing) > 0 {
			t.Fatalf("owner %d version %d: holder %d has marker=%v, lacks shards %v under %s",
				owner, version, h, marked, missing, m)
		}
	}
}

// decodable reports whether the holders in stay, minus those lost, still
// hold enough distinct shards of the line for its codec.
func decodable(rec replCommitRec, sendPlan map[int][]int, stay, lost []int) bool {
	have := make(map[int]bool)
	for _, h := range stay {
		if !slices.Contains(lost, h) {
			for _, idx := range sendPlan[h] {
				have[idx] = true
			}
		}
	}
	return len(have) >= rec.data
}

// TestRepartitionMatrix is the exhaustive elastic re-partition sweep: for
// every world size N=3..8, every grow/shrink of 1-2 slots, and every codec
// geometry, each member commits a line under the old ring, then the
// membership changes. Re-partition is lazy, so for every member owner
// (a) the next line it commits sits exactly where the new ring places it,
// and (b) the old line still decodes where the old ring put it, under
// every loss of up to max(m,1) of its old holders that remain members
// which leaves the codec enough shards.
func TestRepartitionMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive matrix; skipped in -short")
	}
	for n := 3; n <= 8; n++ {
		for _, delta := range []int{+1, +2, -1, -2} {
			if n+delta < 2 {
				continue // a one-member world has no replication ring
			}
			for label, codec := range repartitionCodecs(t) {
				name := fmt.Sprintf("n=%d/delta=%+d/%s", n, delta, label)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					runRepartition(t, n, delta, codec)
				})
			}
		}
	}
}

func runRepartition(t *testing.T, n, delta int, codec Codec) {
	capacity := n + 2
	s := NewReplicatedStore(capacity, WithDistCodec(codec))
	defer s.Close()
	boot := member.New(1, member.Launch(n).Members())
	s.SetMembership(boot)

	sections := func(owner, version int) map[string][]byte {
		pay := bytes.Repeat([]byte{byte(owner + 1), byte(version)}, 129) // not shard-aligned
		return map[string][]byte{"app": pay, "rank": {byte(owner)}}
	}
	for _, owner := range boot.Members() {
		writeCommitted(t, s, owner, 1, sections(owner, 1))
	}

	var next member.Set
	if delta > 0 {
		joins := make([]int, delta)
		for i := range joins {
			joins[i] = n + i
		}
		next = boot.WithJoined(2, joins...)
	} else {
		drops := make([]int, -delta)
		for i := range drops {
			drops[i] = n - 1 - i
		}
		next = boot.WithRemoved(2, drops...)
	}
	s.SetMembership(next)

	for _, owner := range next.Members() {
		writeCommitted(t, s, owner, 2, sections(owner, 2))
		assertPlacement(t, s, next, owner, 2)
		if !boot.Contains(owner) {
			continue // joined after the old line committed; owns none
		}
		rec, ok := lineRec(s, owner, 1)
		if !ok {
			t.Fatalf("owner %d: old line has no marker", owner)
		}
		sendPlan, holders, _ := commitPlan(rec.data == 1, owner, rec.frags, member.NewTopology(boot, 0))
		var stay []int // old holders still members: the only ones recovery asks
		for _, h := range holders {
			if next.Contains(h) {
				stay = append(stay, h)
			}
		}
		for _, combo := range lossCombos(len(stay), max(codec.ParityShards(), 1)) {
			lost := make([]int, len(combo))
			for i, j := range combo {
				lost[i] = stay[j]
			}
			if !decodable(rec, sendPlan, stay, lost) {
				if len(lost) == 0 && len(stay) == len(holders) {
					t.Fatalf("owner %d: old line undecodable with every holder a member", owner)
				}
				continue
			}
			undo := loseHolders(s, owner, 1, lost)
			snap, err := s.Open(owner, 1)
			if err != nil {
				undo()
				t.Fatalf("owner %d lost holders %v: Open: %v", owner, lost, err)
			}
			got, err := snap.ReadSection("app")
			undo()
			if err != nil || !bytes.Equal(got, sections(owner, 1)["app"]) {
				t.Fatalf("owner %d lost holders %v: bad app section (err=%v)", owner, lost, err)
			}
		}
	}
}
