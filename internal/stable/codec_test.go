package stable

import (
	"bytes"
	"testing"

	"c3/internal/member"
)

// testBlob builds a deterministic pseudo-random blob.
func testBlob(n int, seed byte) []byte {
	b := make([]byte, n)
	x := uint32(seed) + 1
	for i := range b {
		x = x*1664525 + 1013904223
		b[i] = byte(x >> 16)
	}
	return b
}

// combinations invokes fn with every size-r index subset of [0,n).
func combinations(n, r int, fn func(drop []int)) {
	idx := make([]int, r)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == r {
			fn(append([]int(nil), idx...))
			return
		}
		for i := start; i <= n-(r-depth); i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}

// codecsUnderTest is the geometry sweep the loss matrix runs over.
func codecsUnderTest(t *testing.T) []Codec {
	t.Helper()
	var cs []Codec
	for _, spec := range []struct {
		name string
		k, m int
	}{
		{"dup", 1, 0}, {"dup", 2, 0}, {"dup", 3, 0},
		{"xor", 2, 0}, {"xor", 3, 0}, {"xor", 4, 0},
		{"rs", 2, 1}, {"rs", 2, 2}, {"rs", 3, 2}, {"rs", 4, 1}, {"rs", 4, 2}, {"rs", 4, 3}, {"rs", 5, 3},
	} {
		c, err := NewCodec(spec.name, spec.k, spec.m)
		if err != nil {
			t.Fatalf("NewCodec(%s,%d,%d): %v", spec.name, spec.k, spec.m, err)
		}
		cs = append(cs, c)
	}
	return cs
}

// TestCodecLossMatrix is the exhaustive fault matrix: for every codec
// geometry and every blob-size class, EVERY combination of up to m lost
// shards reconstructs the blob byte-identically (verified via replSum and
// bytes.Equal), and EVERY combination of m+1 losses fails cleanly.
func TestCodecLossMatrix(t *testing.T) {
	sizes := []int{0, 1, 7, 64, 1000, 4096 + 3}
	for _, codec := range codecsUnderTest(t) {
		k, m := codec.DataShards(), codec.ParityShards()
		total := k + m
		for _, size := range sizes {
			blob := testBlob(size, byte(k*7+m))
			wantSum := replSum(blob)
			shards, err := codec.Encode(blob)
			if err != nil {
				t.Fatalf("k=%d m=%d: encode: %v", k, m, err)
			}
			if len(shards) != total {
				t.Fatalf("k=%d m=%d: %d shards", k, m, len(shards))
			}
			// Every survivable loss combination (0..m losses).
			for lost := 0; lost <= m; lost++ {
				combinations(total, lost, func(drop []int) {
					in := make([][]byte, total)
					copy(in, shards)
					for _, d := range drop {
						in[d] = nil
					}
					got, err := codec.Decode(in, size)
					if err != nil {
						t.Fatalf("k=%d m=%d size=%d drop=%v: decode: %v", k, m, size, drop, err)
					}
					if replSum(got) != wantSum || !bytes.Equal(got, blob) {
						t.Fatalf("k=%d m=%d size=%d drop=%v: reconstruction differs", k, m, size, drop)
					}
				})
			}
			// Every (m+1)-loss combination must fail cleanly, not corrupt.
			combinations(total, m+1, func(drop []int) {
				in := make([][]byte, total)
				copy(in, shards)
				for _, d := range drop {
					in[d] = nil
				}
				if _, err := codec.Decode(in, size); err == nil {
					t.Fatalf("k=%d m=%d size=%d drop=%v: decode of %d losses succeeded", k, m, size, drop, m+1)
				}
			})
		}
	}
}

// TestShardPlacement checks the rotation invariants: shards land on
// distinct ring successors, the owner never holds its own shard, and the
// parity position rotates with the owner so no fixed neighbor carries all
// parity.
func TestShardPlacement(t *testing.T) {
	const n, k, m = 8, 4, 2
	shards := k + m
	parityHolders := make(map[int]bool)
	for owner := 0; owner < n; owner++ {
		holderOf, holders := member.Launch(n).ShardPlan(owner, shards)
		if len(holders) != shards {
			t.Fatalf("owner %d: %d distinct holders, want %d", owner, len(holders), shards)
		}
		seen := make(map[int]bool)
		for idx, h := range holderOf {
			if h == owner {
				t.Fatalf("owner %d stores its own shard %d", owner, idx)
			}
			if seen[h] {
				t.Fatalf("owner %d: holder %d assigned twice", owner, h)
			}
			seen[h] = true
		}
		// Parity shards are the high indexes.
		for idx := k; idx < shards; idx++ {
			parityHolders[(holderOf[idx]-owner+n)%n] = true
		}
	}
	if len(parityHolders) < 3 {
		t.Fatalf("parity always lands on the same relative neighbors %v — placement does not rotate", parityHolders)
	}

	// Degenerate world: more shards than peers wraps without touching the
	// owner and still covers every index.
	holderOf, _ := member.Launch(4).ShardPlan(1, 5)
	for idx, h := range holderOf {
		if h == 1 {
			t.Fatalf("wrapped placement stores owner's own shard %d", idx)
		}
	}
}

// TestCodecRecRoundtrip pins the marker serialization including the
// per-shard digests.
func TestCodecRecRoundtrip(t *testing.T) {
	blob := testBlob(513, 9)
	rs, _ := NewCodec("rs", 3, 2)
	shards, _ := rs.Encode(blob)
	rec := replCommitRec{frags: 5, data: 3, total: len(blob), sum: replSum(blob), sums: shardSums(shards)}
	owner, version, got, err := decodeReplCommit(encodeReplCommit(7, 11, rec))
	if err != nil || owner != 7 || version != 11 {
		t.Fatalf("header roundtrip: %d %d %v", owner, version, err)
	}
	if got.frags != rec.frags || got.data != rec.data ||
		got.total != rec.total || got.sum != rec.sum || len(got.sums) != len(rec.sums) {
		t.Fatalf("rec roundtrip: %+v vs %+v", got, rec)
	}
	for i := range rec.sums {
		if got.sums[i] != rec.sums[i] {
			t.Fatalf("sum %d differs", i)
		}
	}
	if !got.shardValid(2, shards[2]) {
		t.Fatal("valid shard rejected")
	}
	corrupt := append([]byte(nil), shards[2]...)
	corrupt[0] ^= 0xff
	if got.shardValid(2, corrupt) {
		t.Fatal("corrupt shard accepted")
	}
}

// TestMarkerRequiresGeometryAndDigests: a commit marker off the wire must
// name a codec (1 <= data <= frags) and carry one digest per shard. A
// marker without them would let a corrupt shard past repair, so both the
// commit message and the last-committed response refuse it.
func TestMarkerRequiresGeometryAndDigests(t *testing.T) {
	blob := testBlob(300, 7)
	shards, _ := newRSCodec(2, 1).Encode(blob)
	good := replCommitRec{frags: 3, data: 2, total: len(blob), sum: replSum(blob), sums: shardSums(shards)}
	noSums, noData := good, good
	noSums.sums = nil
	noData.data = 0
	for name, rec := range map[string]replCommitRec{"good": good, "empty sums": noSums, "data=0": noData} {
		_, _, _, errCommit := decodeReplCommit(encodeReplCommit(1, 2, rec))
		_, entries, errLast := decodeDistRespLast(encodeDistRespLast(9, []distLastEntry{{version: 2, rec: rec}}))
		if name == "good" {
			if errCommit != nil || errLast != nil || len(entries) != 1 {
				t.Fatalf("good marker refused: %v, %v", errCommit, errLast)
			}
			continue
		}
		if errCommit == nil {
			t.Errorf("decodeReplCommit accepted a marker with %s", name)
		}
		if errLast == nil {
			t.Errorf("decodeDistRespLast accepted a marker with %s", name)
		}
	}
}

// shardSums digests every shard, as a commit marker records them.
func shardSums(shards [][]byte) []uint64 {
	sums := make([]uint64, len(shards))
	for i, s := range shards {
		sums[i] = replSum(s)
	}
	return sums
}

// FuzzCodecDecode drives the reassembly entry point with arbitrary shard
// bytes and geometry — the exact surface a malicious or corrupt peer
// response reaches. No input may panic; a successful decode must satisfy
// the whole-blob digest the caller re-validates.
func FuzzCodecDecode(f *testing.F) {
	blob := testBlob(300, 5)
	for _, g := range [][2]int{{1, 2}, {3, 1}, {3, 2}} {
		shards, _ := newRSCodec(g[0], g[1]).Encode(blob)
		f.Add(g[0], g[1], len(blob), shards[0], shards[1], []byte(nil))
	}
	f.Add(200, 100, 1<<20, []byte{1}, []byte{}, []byte{2, 3})
	// Shard sets the codec must refuse: unequal lengths, and (k > 1) a
	// length that is not a multiple of the kernel's eight packets.
	shards, _ := newRSCodec(3, 2).Encode(blob)
	f.Add(3, 2, len(blob), shards[0], shards[1][:len(shards[1])-8], shards[2])
	f.Add(3, 2, 99*3, shards[0][:99], shards[1][:99], shards[2][:99])
	f.Add(2, 1, 13, []byte("0123456789abc"), []byte("0123456789abc"), []byte(nil))

	f.Fuzz(func(t *testing.T, k, m, total int, s0, s1, s2 []byte) {
		if k < 1 || m < 0 || k > 64 || m > 64 || total < 0 || total > 1<<20 {
			return
		}
		codec := newRSCodec(k, m)
		shards := make([][]byte, k+m)
		pool := [][]byte{s0, s1, s2, nil}
		lens := map[int]bool{}
		for i := range shards {
			if shards[i] = pool[i%len(pool)]; shards[i] != nil {
				lens[len(shards[i])] = true
			}
		}
		got, err := codec.Decode(shards, total)
		if err == nil && len(got) != total {
			t.Fatalf("decode returned %d bytes, want %d", len(got), total)
		}
		for n := range lens {
			if err == nil && (len(lens) > 1 || k > 1 && n%8 != 0) {
				t.Fatalf("decode accepted shard lengths %v with k=%d", lens, k)
			}
		}
		// Encode of arbitrary bytes must roundtrip through a full decode.
		if k >= 1 && total <= 1<<16 {
			enc, err := codec.Encode(s0)
			if err == nil {
				back, err := codec.Decode(enc, len(s0))
				if err != nil || !bytes.Equal(back, s0) {
					t.Fatalf("roundtrip failed: %v", err)
				}
			}
		}
	})
}

// TestCodecNames pins the flag-level surface.
func TestCodecNames(t *testing.T) {
	for _, c := range []struct {
		name    string
		k, m    int
		wantK   int
		wantM   int
		wantErr bool
	}{
		{"", 0, 0, 1, 2, false},
		{"dup", 0, 0, 1, 2, false},
		{"dup", 3, 0, 1, 3, false}, // dup's number counts whole copies
		{"dup", 5, 9, 0, 0, true},  // parity with dup is a misconfiguration, not a downgrade
		{"dup", 255, 0, 0, 0, true},
		{"xor", 0, 0, 4, 1, false},
		{"xor", 6, 1, 6, 1, false},
		{"xor", 6, 3, 0, 0, true}, // xor has exactly one parity shard
		{"xor", 255, 0, 0, 0, true},
		{"rs", 0, 0, 4, 2, false},
		{"rs", 4, 2, 4, 2, false},
		{"rs", 253, 2, 253, 2, false},
		{"rs", 200, 100, 0, 0, true},
		{"bogus", 0, 0, 0, 0, true},
	} {
		codec, err := NewCodec(c.name, c.k, c.m)
		if c.wantErr {
			if err == nil {
				t.Fatalf("NewCodec(%q,%d,%d) succeeded", c.name, c.k, c.m)
			}
			continue
		}
		if err != nil {
			t.Fatalf("NewCodec(%q,%d,%d): %v", c.name, c.k, c.m, err)
		}
		if codec.DataShards() != c.wantK || codec.ParityShards() != c.wantM {
			t.Fatalf("NewCodec(%q,%d,%d) = k%d m%d, want k%d m%d",
				c.name, c.k, c.m, codec.DataShards(), codec.ParityShards(), c.wantK, c.wantM)
		}
	}
}

// TestCauchyAnyKShardsInvert checks the MDS property exhaustively for small
// geometries: every k-row subset of [I; P] is invertible, so any k shards
// reconstruct the blob.
func TestCauchyAnyKShardsInvert(t *testing.T) {
	for k := 1; k <= 12; k++ {
		for m := 1; m <= 4; m++ {
			c := newRSCodec(k, m)
			combinations(k+m, k, func(rows []int) {
				if _, err := c.rows(rows).invert(); err != nil {
					t.Fatalf("k=%d m=%d: rows %v of [I; P] are singular", k, m, rows)
				}
			})
		}
	}
}

// TestCauchyParityNormalized: for every geometry P's first row and first
// column are all ones, so (k, 1) is plain XOR parity and every (1, m)
// parity shard is a whole copy of the blob. Every geometry's P is a block
// of the one formula, so its row 0 and column 0 over the whole range
// cover them all; a few codecs check that NewCodec builds that block.
func TestCauchyParityNormalized(t *testing.T) {
	for x := 0; x < maxShards-1; x++ {
		if v := cauchy(0, x); v != 1 {
			t.Fatalf("P[0][%d] = %d, want 1", x, v)
		}
		if v := cauchy(x, 0); v != 1 {
			t.Fatalf("P[%d][0] = %d, want 1", x, v)
		}
	}
	for _, g := range [][2]int{{1, 2}, {4, 1}, {4, 2}, {12, 4}, {200, 55}, {1, 254}, {254, 1}} {
		c := newRSCodec(g[0], g[1])
		for i := range c.parity {
			for j, v := range c.parity[i] {
				if v != cauchy(i, j) {
					t.Fatalf("k=%d m=%d: P[%d][%d] = %d, want %d", g[0], g[1], i, j, v, cauchy(i, j))
				}
			}
		}
	}
	blob := testBlob(1000, 4)
	shards, err := mustCodec(t, "dup", 2, 0).Encode(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range shards {
		if &s[0] != &blob[0] || len(s) != len(blob) {
			t.Fatalf("dup shard %d is not the blob itself", i)
		}
	}
}
