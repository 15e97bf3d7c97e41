package stable

import (
	"bytes"
	"fmt"
	"testing"
)

// slicedMulAdd is the parity kernel's oracle, written from the layout's
// definition and scalar gfMul alone: every gfStripe-byte stripe of src
// (the last may be shorter) is eight packets, and symbol t of the stripe
// has its bit b at bit t of packet b. It gathers each symbol's eight bits,
// multiplies with gfMul, and scatters the product's bits into dst by XOR.
// len(src) must be a multiple of 8.
func slicedMulAdd(dst, src []byte, coef byte) {
	var mul [256]byte
	for x := range mul {
		mul[x] = gfMul(coef, byte(x))
	}
	for lo := 0; lo < len(src); lo += gfStripe {
		hi := min(lo+gfStripe, len(src))
		s, d, p := src[lo:hi], dst[lo:hi], (hi-lo)/8
		for q := 0; q < p; q++ { // symbols 8q .. 8q+7: bits 0..7 of byte q of each packet
			var in, out uint64 // byte b is byte q of packet b
			for b := 0; b < 8; b++ {
				in |= uint64(s[b*p+q]) << (8 * b)
			}
			for t := 0; t < 8; t++ {
				var x byte
				for b := 0; b < 8; b++ {
					x |= byte(in>>(8*b+t)&1) << b
				}
				y := mul[x]
				for b := 0; b < 8; b++ {
					out |= uint64(y>>b&1) << (8*b + t)
				}
			}
			for b := 0; b < 8; b++ {
				d[b*p+q] ^= byte(out >> (8 * b))
			}
		}
	}
}

// TestGFMulAddMatchesScalar checks the bit-sliced kernel against the
// oracle: every coefficient over every short length that is a multiple of
// 8, and every 17th over a few stripes ending in a short one (the oracle
// is slow under -race). Coefficients 0 and 1 need no packet structure, so
// they are also checked byte by byte over every short length and an odd
// long one.
func TestGFMulAddMatchesScalar(t *testing.T) {
	lengths := make([]int, 0, 70)
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 3*gfStripe+8*13, 1<<20+3)
	for _, n := range lengths {
		src, seed := testBlob(n, 21), testBlob(n, 22)
		want, got := make([]byte, n), make([]byte, n)
		for coef := 0; coef <= 255; coef++ {
			switch {
			case coef <= 1:
				for i := range want {
					want[i] = seed[i] ^ gfMul(byte(coef), src[i])
				}
			case n%8 != 0 || (n > 67 && coef%17 != 0):
				continue
			default:
				copy(want, seed)
				slicedMulAdd(want, src, byte(coef))
			}
			copy(got, seed)
			gfMulAdd(got, src, byte(coef))
			if !bytes.Equal(got, want) {
				t.Fatalf("gfMulAdd coef=%d len=%d differs from the bit-sliced scalar oracle", coef, n)
			}
		}
	}
}

// TestGFMulRowsSplitsExactly: the goroutine split and the stripe loop of
// gfMulRows cover every byte exactly once, whatever the shard length, and
// split on stripe boundaries, where the packets are.
func TestGFMulRowsSplitsExactly(t *testing.T) {
	coef := [][]byte{{1, 2, 3}, {7, 0, 200}}
	for _, sz := range []int{0, 8, gfStripe - 8, gfStripe + 8, 8*gfStripe + 40, 13*gfStripe + 56} {
		in := [][]byte{testBlob(sz, 1), testBlob(sz, 2), testBlob(sz, 3)}
		out := [][]byte{make([]byte, sz), make([]byte, sz)}
		gfMulRows(coef, in, out, sz)
		for r := range out {
			want := make([]byte, sz)
			for j := range in {
				slicedMulAdd(want, in[j], coef[r][j])
			}
			if !bytes.Equal(out[r], want) {
				t.Fatalf("gfMulRows sz=%d row %d differs from the scalar product", sz, r)
			}
		}
	}
}

// refEncode is the encoder in its plainest form: every data shard a
// zero-padded copy, every parity shard the oracle's sum over the Cauchy
// rows (or, for xor, a plain XOR). Encode's kernel, aliasing data shards
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
			if c := cauchy(p, j); c == 1 {
				for i, b := range shards[j] {
					parity[i] ^= b
				}
			} else {
				slicedMulAdd(parity, shards[j], c)
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
				if sz := len(want[0]); c.k > 1 && sz%8 != 0 {
					t.Fatalf("shard size %d is not a multiple of 8", sz)
				}
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
				// The tail shard's padding is the blob's spare capacity when that
				// is zero, and a zeroed copy when it is not.
				sz := len(want[0])
				for _, fill := range []byte{0, 0xff} {
					spare := make([]byte, size, c.k*sz+8)
					copy(spare, blob)
					for i := size; i < cap(spare); i++ {
						spare[:cap(spare)][i] = fill
					}
					got, err := codec.Encode(spare)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if !bytes.Equal(got[i], want[i]) {
							t.Fatalf("spare capacity %#x: shard %d differs from the reference encoder", fill, i)
						}
					}
					padded := c.k*sz > size
					if aliased := &got[c.k-1][0] == &spare[:cap(spare)][(c.k-1)*sz]; aliased != (fill == 0 || !padded) {
						t.Fatalf("spare capacity %#x: tail shard aliases the blob: %v", fill, aliased)
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
