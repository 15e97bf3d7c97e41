package stable

// The fragment codec of the diskless stable store: one (k, m) erasure code.
//
// The paper's diskless configuration (and the first replicated store) buys
// fault tolerance with full replication: every checkpoint blob is copied
// verbatim to the +1/+2 ring neighbors, so surviving any two simultaneous
// node losses costs 2x the checkpoint size in interconnect bytes and 2x in
// peer memory — the dominant scaling cost the paper's evaluation worries
// about. Erasure coding (ReStore's successor work; Kohl et al. 2017)
// recovers the same tolerance at a fraction of the cost: the blob is cut
// into k data shards plus m parity shards, any k of the k+m suffice to
// reconstruct, and each shard lives on a distinct ring successor.
//
// Both schemes are one systematic Reed-Solomon code over GF(2^8) whose
// parity rows form a normalized Cauchy matrix (first row and first column
// all ones). NewCodec's names are presets of its geometry:
//
//   - dup (1, c): replication. Every parity row of a k = 1 code is [1], so
//     each of the c parity shards is the blob itself; the store keeps shard
//     0 as the owner's local copy and ships the c copies to ring successors
//     (default c = 2: any 2 losses at 2x wire / 3x stored cost).
//   - xor (k, 1): the one parity row is all ones, plain XOR parity.
//     Tolerates any single loss at (k+1)/k cost.
//   - rs (k, m): tolerates any m simultaneous losses at (k+m)/k cost — at
//     m=2 the same tolerance as dup for ~half the stored bytes.
//
// For k > 1 the owner intentionally keeps NO full local copy: the line
// exists only as shards spread around the ring (that is where the memory
// saving comes from), and every Open reassembles — the reassembly latency
// the AblationCodec bench table prices.

import (
	"bytes"
	"crypto/subtle"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
)

// Codec turns a checkpoint blob into shards and back. Encode returns
// DataShards()+ParityShards() shards; Decode reconstructs the blob from any
// DataShards() of them (nil entries mark missing or checksum-rejected
// shards).
//
// Ownership: the caller hands the blob over to Encode, its spare capacity
// included. The returned shards may alias it: the data shards are
// sub-slices of the blob, the zero-padded tail shard reaches into the
// blob's spare capacity when those bytes are already zero (as an append
// that grew the blob leaves them), and with k = 1 every parity shard is
// the one data shard, so encoding touches each data byte at most once
// instead of copying it first. The caller must not modify the blob or its
// spare capacity while it still uses the shards. Nothing stored pins the
// blob: a fragment message carries a view of its shard, and whoever
// receives it keeps bytes of its own (a frame the TCP mesh read, or the
// copy the in-memory receiver makes). Decode only reads its input shards
// and returns a fresh blob.
type Codec interface {
	// DataShards is k: the number of shards that suffice to reconstruct.
	DataShards() int
	// ParityShards is m: the number of simultaneous shard losses tolerated.
	ParityShards() int
	// Encode splits blob into k+m shards of equal length (the tail is
	// zero-padded).
	Encode(blob []byte) ([][]byte, error)
	// Decode reconstructs the original blob of length total from shards
	// (indexed as produced by Encode; nil = lost). It fails cleanly when
	// fewer than k shards survive or their lengths do not fit the code.
	Decode(shards [][]byte, total int) ([]byte, error)
}

// maxShards bounds k+m: GF(2^8) has 256 elements, and the Cauchy
// construction needs k+m distinct ones.
const maxShards = 255

// NewCodec builds a codec from a preset name and its geometry (0 selects
// the preset's default). For dup, k is the number of whole copies shipped
// to ring successors. A parity count the preset cannot honor is an error,
// not a silent downgrade — an operator passing -parity 2 with -codec dup
// must not believe they have parity protection.
func NewCodec(name string, k, m int) (Codec, error) {
	switch name {
	case "", "dup":
		if m > 0 {
			return nil, fmt.Errorf("stable: dup codec replicates whole copies and takes no parity shards (use xor or rs)")
		}
		if k <= 0 {
			k = 2
		}
		k, m = 1, k
	case "xor":
		if m > 1 {
			return nil, fmt.Errorf("stable: xor codec has exactly one parity shard (use rs for m=%d)", m)
		}
		if k <= 0 {
			k = 4
		}
		m = 1
	case "rs":
		if k <= 0 {
			k = 4
		}
		if m <= 0 {
			m = 2
		}
	default:
		return nil, fmt.Errorf("stable: unknown codec %q (dup, xor, rs)", name)
	}
	if k+m > maxShards {
		return nil, fmt.Errorf("stable: %s codec k+m = %d exceeds %d", name, k+m, maxShards)
	}
	return newRSCodec(k, m), nil
}

// shardSize is the padded per-shard length for a blob of the given size
// split into k data shards. Always at least 1 so parity math has bytes to
// work on even for empty blobs; with k > 1 a multiple of 8, because the
// parity kernel cuts every stripe into eight packets.
func shardSize(total, k int) int {
	sz := max((total+k-1)/k, 1)
	if k > 1 {
		sz = (sz + 7) &^ 7
	}
	return sz
}

// dataShards cuts blob into k shards of sz bytes, each a sub-slice of the
// blob (capacity clipped, so an append cannot reach the next shard). The
// zero padding past the blob's end is the blob's own spare capacity when
// that is long enough and already zero — at most 8k bytes to check —
// and only otherwise a copy of the tail.
func dataShards(blob []byte, k, sz int) [][]byte {
	if pad := blob[len(blob):cap(blob)]; len(pad) >= k*sz-len(blob) && allZero(pad[:k*sz-len(blob)]) {
		blob = blob[:k*sz]
	}
	shards := make([][]byte, k)
	for i := range shards {
		lo := i * sz
		if lo+sz <= len(blob) {
			shards[i] = blob[lo : lo+sz : lo+sz]
			continue
		}
		s := make([]byte, sz)
		if lo < len(blob) {
			copy(s, blob[lo:])
		}
		shards[i] = s
	}
	return shards
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// GF(2^8) arithmetic with the 0x11d polynomial (the classic RS field).
// Exp table is doubled so mul can index exp[logA+logB] without a mod.
var gfExp [512]byte
var gfLog [256]byte

// gfBits[c] is multiplication by c as an 8×8 matrix over GF(2), one byte
// per row: bit b of gfBits[c][r] is bit r of c·2^b. It is all the parity
// kernel (gfMulAdd) needs to know about a coefficient: 2 KiB in all.
var gfBits [256][8]byte

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[byte(x)] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11d
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for c := range gfBits {
		for b := 0; b < 8; b++ {
			p := gfMul(byte(c), 1<<b)
			for r := range gfBits[c] {
				gfBits[c][r] |= (p >> r & 1) << b
			}
		}
	}
}

func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

func gfDiv(a, b byte) byte {
	if a == 0 {
		return 0
	}
	if b == 0 {
		panic("stable: GF(2^8) division by zero")
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// gfStripe is how many bytes of every shard gfMulRows works on at a time:
// one input stripe feeds all output rows while it is still in cache, so
// each input shard is read from memory once however many rows there are.
const gfStripe = 32 << 10

// gfMulAdd is the parity kernel: dst ^= coef·src, where the symbols are
// bit-sliced. Each gfStripe-byte stripe of a shard (the last one may be
// shorter) is eight packets of a stripe's eighth, and symbol t of the
// stripe has its bit b at bit t of packet b. Multiplying every symbol by
// coef is then the 8×8 bit matrix gfBits[coef] applied to whole packets:
// output packet r is the XOR of the input packets its row names, one
// crypto/subtle.XORBytes each. Coefficient 1 is the identity, a plain XOR
// of the whole range that needs no packet structure; every other nonzero
// coefficient needs a length that is a multiple of 8.
func gfMulAdd(dst, src []byte, coef byte) {
	switch coef {
	case 0:
		return
	case 1:
		subtle.XORBytes(dst, dst, src[:len(dst)])
		return
	}
	m := &gfBits[coef]
	for lo := 0; lo < len(dst); lo += gfStripe {
		hi := min(lo+gfStripe, len(dst))
		d, s, p := dst[lo:hi], src[lo:hi], (hi-lo)/8
		for r, row := range m {
			out := d[r*p : (r+1)*p]
			for ; row != 0; row &= row - 1 {
				b := bits.TrailingZeros8(row)
				subtle.XORBytes(out, out, s[b*p:(b+1)*p])
			}
		}
	}
}

// gfMulRows adds Σ_j coef[r][j]·in[j] into out[r] over shards of sz bytes,
// split across goroutines by gfParallel. It serves Encode (coef = the
// parity rows of the encoding matrix) and rebuild (coef = the inverted
// rows of the missing shards, into zeroed rows) alike.
func gfMulRows(coef [][]byte, in, out [][]byte, sz int) {
	gfParallel(sz, gfParts(sz), func(_, lo, hi int) { gfMulRange(coef, in, out, lo, hi) })
}

// gfParts is how many goroutines gfParallel spreads sz bytes of shard
// over: up to GOMAXPROCS, at least four stripes each.
func gfParts(sz int) int {
	return max(1, min(runtime.GOMAXPROCS(0), sz/(4*gfStripe)))
}

// gfParallel cuts [0, sz) into parts ranges on stripe boundaries, which
// the bit-sliced layout needs, and runs fn on each, part p on the p-th
// range in order, each on its own goroutine when there are several. The
// ranges are disjoint, so the workers share nothing.
func gfParallel(sz, parts int, fn func(part, lo, hi int)) {
	if parts <= 1 {
		fn(0, 0, sz)
		return
	}
	stripes := (sz + gfStripe - 1) / gfStripe
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		lo, hi := p*stripes/parts*gfStripe, min((p+1)*stripes/parts*gfStripe, sz)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(p, lo, hi)
		}()
	}
	wg.Wait()
}

func gfMulRange(coef [][]byte, in, out [][]byte, lo, hi int) {
	for ; lo < hi; lo += gfStripe {
		end := min(lo+gfStripe, hi)
		for j, src := range in {
			for r, dst := range out {
				gfMulAdd(dst[lo:end], src[lo:end], coef[r][j])
			}
		}
	}
}

// gfMatrix is a dense matrix over GF(2^8).
type gfMatrix [][]byte

func newGFMatrix(rows, cols int) gfMatrix {
	m := make(gfMatrix, rows)
	for i := range m {
		m[i] = make([]byte, cols)
	}
	return m
}

// invert returns the inverse via Gauss-Jordan elimination; it fails only on
// a singular matrix (which the Cauchy construction rules out for any
// k-subset of rows).
func (a gfMatrix) invert() (gfMatrix, error) {
	n := len(a)
	work := newGFMatrix(n, 2*n)
	for i := 0; i < n; i++ {
		copy(work[i], a[i])
		work[i][n+i] = 1
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if work[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, fmt.Errorf("stable: singular GF matrix")
		}
		work[col], work[pivot] = work[pivot], work[col]
		if p := work[col][col]; p != 1 {
			for j := 0; j < 2*n; j++ {
				work[col][j] = gfDiv(work[col][j], p)
			}
		}
		for r := 0; r < n; r++ {
			if r == col || work[r][col] == 0 {
				continue
			}
			f := work[r][col]
			for j := 0; j < 2*n; j++ {
				work[r][j] ^= gfMul(f, work[col][j])
			}
		}
	}
	out := newGFMatrix(n, n)
	for i := 0; i < n; i++ {
		copy(out[i], work[i][n:])
	}
	return out, nil
}

// cauchy is entry (i, j) of the parity matrix P of every geometry: (k,
// m)'s P is the m×k block i < m, j < k. It is the Cauchy matrix
// c[i][j] = 1/(x_i + y_j) over the points x_i = 255-i and y_j = j, which
// are distinct wherever k+m <= 255. Every square submatrix of a Cauchy
// matrix is nonsingular, so every k×k row subset of [I; P] is invertible
// and ANY k surviving shards reconstruct the data. Scaling a row or a
// column by a nonzero constant keeps that property, so the columns are
// scaled until row 0 is all ones and then the rows until column 0 is:
// c[i][j]·c[0][0] / (c[0][j]·c[i][0]). Hence (k, 1) is plain XOR parity,
// every (1, m) parity row is [1] (a whole copy), and the ones elsewhere
// are coefficients gfMulAdd runs as a plain XOR.
func cauchy(i, j int) byte {
	c := func(i, j int) byte { return gfDiv(1, byte(maxShards-i)^byte(j)) }
	return gfDiv(gfMul(c(i, j), c(0, 0)), gfMul(c(0, j), c(i, 0)))
}

// rsCodec is the one codec: systematic Reed-Solomon with k data and m
// parity shards, and its parity matrix P.
type rsCodec struct {
	k, m   int
	parity gfMatrix // m×k
	// rest is parity without column 0, which is all ones: Encode starts
	// every parity shard as a copy of data shard 0 and adds the rest.
	rest gfMatrix
}

// newRSCodec builds the (k, m) codec and its m×k block of the Cauchy
// matrix, k·m entries from the formula.
func newRSCodec(k, m int) rsCodec {
	c := rsCodec{k: k, m: m, parity: newGFMatrix(m, k), rest: make(gfMatrix, m)}
	for i, row := range c.parity {
		for j := range row {
			row[j] = cauchy(i, j)
		}
		c.rest[i] = row[1:]
	}
	return c
}

func (c rsCodec) DataShards() int   { return c.k }
func (c rsCodec) ParityShards() int { return c.m }

// rows returns the rows of the systematic encoding matrix [I; P] that
// produced shards idxs: a unit row for a data shard, a parity row for the
// others.
func (c rsCodec) rows(idxs []int) gfMatrix {
	out := newGFMatrix(len(idxs), c.k)
	for r, idx := range idxs {
		if idx < c.k {
			out[r][idx] = 1
		} else {
			copy(out[r], c.parity[idx-c.k])
		}
	}
	return out
}

func (c rsCodec) Encode(blob []byte) ([][]byte, error) {
	shards := dataShards(blob, c.k, shardSize(len(blob), c.k))
	return append(shards, c.encodeParity(shards)...), nil
}

// encodeParity computes the m parity shards of the k data shards
// dataShards cut. With k = 1 every parity row is [1]: each parity shard
// is the data shard itself.
func (c rsCodec) encodeParity(data [][]byte) [][]byte {
	parity := make([][]byte, c.m)
	if c.k == 1 {
		for p := range parity {
			parity[p] = data[0]
		}
		return parity
	}
	// Starting from a copy of data shard 0 also spares zeroing the shard.
	for p := range parity {
		parity[p] = bytes.Clone(data[0])
	}
	gfMulRows(c.rest, data[1:], parity, len(data[0]))
	return parity
}

// Decode copies the data shards it is given to their offsets in a new
// blob and rebuilds the missing ones there: the decode path the store's
// restore shares (rebuild).
func (c rsCodec) Decode(shards [][]byte, total int) ([]byte, error) {
	if len(shards) != c.k+c.m {
		return nil, fmt.Errorf("stable: rs expects %d shards, got %d", c.k+c.m, len(shards))
	}
	sz, have := -1, 0
	for i, s := range shards {
		if s == nil {
			continue
		}
		if sz < 0 {
			sz = len(s)
		} else if len(s) != sz {
			return nil, fmt.Errorf("stable: rs shard %d length %d != %d", i, len(s), sz)
		}
		have++
	}
	if have < c.k {
		return nil, fmt.Errorf("stable: rs has %d of %d required shards", have, c.k)
	}
	if c.k > 1 && sz%8 != 0 {
		return nil, fmt.Errorf("stable: rs shard length %d is not a multiple of 8", sz)
	}
	if total > c.k*sz {
		return nil, fmt.Errorf("stable: rs reassembly shorter than %d bytes", total)
	}
	blob := make([]byte, total, c.k*sz)
	in := slices.Clone(shards)
	for d, s := range shards[:c.k] {
		if s != nil {
			in[d] = dataRange(blob, d, sz)
			copy(in[d], s)
		}
	}
	if err := c.rebuild(blob, sz, in, nil); err != nil {
		return nil, err
	}
	return blob, nil
}

// dataRange is data shard d's place in a blob laid out in place: its sz
// bytes at offset d·sz, which reach into the blob's spare capacity past
// its end (capacity clipped, so the ranges stay disjoint).
func dataRange(blob []byte, d, sz int) []byte {
	return blob[d*sz : (d+1)*sz : (d+1)*sz]
}

// rebuild writes the missing data shards of a blob laid out in place —
// data shard d at dataRange(blob, d, sz), the tail shard's padding in the
// blob's capacity of k·sz — from the first k shards present in shards
// (indexed as Encode produced them; data shards are views of their
// ranges, parity shards lie anywhere; nil = absent). The ranges of the
// missing shards must be zero. Row d of the inverse of the survivors'
// encoding rows rebuilds data shard d straight into its range: only the
// missing shards are computed, and nothing is joined. With sums, each
// rebuilt shard is digested as it is written, stripe by stripe while the
// stripe is still in cache, into sums[d].
func (c rsCodec) rebuild(blob []byte, sz int, shards [][]byte, sums []shardCRC) error {
	var have, missing []int
	for i, s := range shards {
		switch {
		case s == nil && i < c.k:
			missing = append(missing, i)
		case s != nil && len(have) < c.k:
			have = append(have, i)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	if len(have) < c.k {
		return fmt.Errorf("stable: rs has %d of %d required shards", len(have), c.k)
	}
	inv, err := c.rows(have).invert()
	if err != nil {
		return err
	}
	in := make([][]byte, c.k)
	for r, idx := range have {
		in[r] = shards[idx]
	}
	rows, out := make([][]byte, len(missing)), make([][]byte, len(missing))
	for r, d := range missing {
		rows[r], out[r] = inv[d], dataRange(blob, d, sz)
	}
	if sums == nil {
		gfMulRows(rows, in, out, sz)
		return nil
	}
	// Each part digests its range of every rebuilt shard; the parts' runs
	// are then chained in order.
	parts := gfParts(sz)
	runs := make([][]shardCRC, parts)
	gfParallel(sz, parts, func(p, lo, hi int) {
		runs[p] = make([]shardCRC, len(out))
		for ; lo < hi; lo += gfStripe {
			end := min(lo+gfStripe, hi)
			gfMulRange(rows, in, out, lo, end)
			for r, o := range out {
				runs[p][r].update(o[lo:end], lo, len(blobPart(blob, missing[r], sz)))
			}
		}
	})
	for r, d := range missing {
		var sum shardCRC
		for _, run := range runs {
			sum = sum.then(run[r])
		}
		sums[d] = sum
	}
	return nil
}
