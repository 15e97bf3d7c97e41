package stable

import (
	"bytes"
	"fmt"
	"testing"
)

// TestGFMulAddMatchesScalar checks the table kernel against scalar gfMul,
// the oracle: every coefficient over all short lengths (word loop, byte
// tail and their boundary), and every 17th over one long length — the
// scalar oracle over a megabyte for all 256 costs 30 s under -race.
func TestGFMulAddMatchesScalar(t *testing.T) {
	lengths := make([]int, 0, 69)
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 1<<20+3)
	for _, n := range lengths {
		src, seed := testBlob(n, 21), testBlob(n, 22)
		want, got := make([]byte, n), make([]byte, n)
		step := 1
		if n > 67 {
			step = 17
		}
		for coef := 0; coef <= 255; coef += step {
			copy(got, seed)
			for i := range want {
				want[i] = seed[i] ^ gfMul(byte(coef), src[i])
			}
			gfMulAdd(got, src, byte(coef))
			if !bytes.Equal(got, want) {
				t.Fatalf("gfMulAdd coef=%d len=%d differs from scalar gfMul", coef, n)
			}
		}
	}
}

// TestGFMulRowsSplitsExactly: the goroutine split and the stripe loop of
// gfMulRows cover every byte exactly once, whatever the shard length.
func TestGFMulRowsSplitsExactly(t *testing.T) {
	coef := [][]byte{{1, 2, 3}, {7, 0, 200}}
	for _, sz := range []int{0, 1, gfStripe - 1, gfStripe + 1, 8*gfStripe + 5, 1<<20 + 7} {
		in := [][]byte{testBlob(sz, 1), testBlob(sz, 2), testBlob(sz, 3)}
		out := [][]byte{make([]byte, sz), make([]byte, sz)}
		gfMulRows(coef, in, out, sz)
		for r := range out {
			want := make([]byte, sz)
			for j := range in {
				for i := range want {
					want[i] ^= gfMul(coef[r][j], in[j][i])
				}
			}
			if !bytes.Equal(out[r], want) {
				t.Fatalf("gfMulRows sz=%d row %d differs from the scalar product", sz, r)
			}
		}
	}
}

// refEncode is the encoder in its plainest form: every data shard a
// zero-padded copy, every parity byte a scalar gfMul over the Cauchy rows
// (or, for xor, a plain XOR). Encode's table kernel, aliasing data shards
// and k = 1 whole copies must stay byte-identical to it.
func refEncode(blob []byte, k, m int, xor bool) [][]byte {
	sz := shardSize(len(blob), k)
	shards := make([][]byte, k)
	for i := range shards {
		shards[i] = make([]byte, sz)
		if lo := i * sz; lo < len(blob) {
			copy(shards[i], blob[lo:])
		}
	}
	if xor {
		parity := make([]byte, sz)
		for _, s := range shards {
			for i, b := range s {
				parity[i] ^= b
			}
		}
		return append(shards, parity)
	}
	for p := 0; p < m; p++ {
		parity := make([]byte, sz)
		for j := 0; j < k; j++ {
			for i := 0; i < sz; i++ {
				parity[i] ^= gfMul(cauchyParity[p][j], shards[j][i])
			}
		}
		shards = append(shards, parity)
	}
	return shards
}

func TestEncodeMatchesReference(t *testing.T) {
	for _, c := range []struct {
		name string
		k, m int
	}{{"rs", 4, 2}, {"rs", 3, 2}, {"rs", 2, 1}, {"xor", 4, 1}, {"rs", 1, 2}} {
		codec := mustCodec(t, c.name, c.k, c.m)
		for _, size := range []int{0, 1, c.k - 1, c.k, c.k + 1, 8<<20 + 5} {
			t.Run(fmt.Sprintf("%s-%d-%d/%d", c.name, c.k, c.m, size), func(t *testing.T) {
				blob := testBlob(size, byte(c.k+c.m))
				want := refEncode(blob, c.k, c.m, c.name == "xor")
				got, err := codec.Encode(append([]byte(nil), blob...))
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%d shards, want %d", len(got), len(want))
				}
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("shard %d differs from the reference encoder", i)
					}
				}
				// Decode from parity alone where the geometry allows it, so the
				// repair path is pinned to the same reference bytes.
				lost := append([][]byte(nil), want...)
				for i := 0; i < c.m; i++ {
					lost[i] = nil
				}
				back, err := codec.Decode(lost, size)
				if err != nil || !bytes.Equal(back, blob) {
					t.Fatalf("decode of reference shards with %d data shards lost: %v", c.m, err)
				}
			})
		}
	}
}
