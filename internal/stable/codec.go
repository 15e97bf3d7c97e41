package stable

// Pluggable fragment codecs for the diskless stable store.
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
// Three codecs are provided:
//
//   - dup: the legacy scheme. The blob is split into fragments and every
//     fragment is shipped to BOTH +1/+2 neighbors; the owner keeps a full
//     local copy. Tolerates any 2 simultaneous losses at 2x wire / 3x
//     stored cost. Default, with the pre-codec stores' placement, shard
//     boundaries and recovery semantics (the fragment header and commit
//     marker themselves gained codec fields, so the frame encoding is NOT
//     compatible with pre-codec binaries).
//   - xor: k data shards + 1 XOR parity shard on k+1 distinct successors.
//     Tolerates any single loss at (k+1)/k cost.
//   - rs: Reed-Solomon over GF(2^8), k data + m parity shards on k+m
//     distinct successors. Tolerates any m simultaneous losses at (k+m)/k
//     cost — at m=2 the same tolerance as dup for ~half the stored bytes.
//
// For the erasure codecs the owner intentionally keeps NO full local copy:
// the line exists only as shards spread around the ring (that is where the
// memory saving comes from), and every Open reassembles — the reassembly
// latency the AblationCodec bench table prices.

import (
	"bytes"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
)

// Codec identifiers carried in fragment headers and commit markers.
const (
	CodecDup uint8 = iota
	CodecXOR
	CodecRS
)

// Codec turns a checkpoint blob into shards and back. Encode returns
// DataShards()+ParityShards() shards; Decode reconstructs the blob from any
// sufficient subset (nil entries mark missing or checksum-rejected shards).
//
// Ownership: the caller hands the blob over to Encode. The returned shards
// may alias it (the erasure codecs' data shards are sub-slices of the blob,
// so encoding touches each data byte once instead of copying it first), and
// the caller must not modify the blob while it still uses the shards. A
// store that retains a shard beyond the commit copies it into a buffer of
// its own (encodeReplFrag does), so nothing stored ever pins the blob.
// Decode only reads its input shards and returns a fresh blob.
type Codec interface {
	// Name is the flag-level identifier (dup, xor, rs).
	Name() string
	// ID is the wire identifier (CodecDup, CodecXOR, CodecRS).
	ID() uint8
	// DataShards is k: the number of shards that suffice to reconstruct.
	DataShards() int
	// ParityShards is m: the number of simultaneous shard losses tolerated.
	ParityShards() int
	// Encode splits blob into k+m shards. All shards of an erasure codec
	// have equal length (the tail is zero-padded).
	Encode(blob []byte) ([][]byte, error)
	// Decode reconstructs the original blob of length total from shards
	// (indexed as produced by Encode; nil = lost). It fails cleanly when
	// fewer than k shards survive.
	Decode(shards [][]byte, total int) ([]byte, error)
}

// NewCodec builds a codec by name. k is the data-shard count (0 selects
// the per-codec default), m the parity-shard count (0 selects the
// default). A parity count the codec cannot honor is an error, not a
// silent downgrade — an operator passing -parity 2 with -codec dup must
// not believe they have parity protection.
func NewCodec(name string, k, m int) (Codec, error) {
	switch name {
	case "", "dup":
		if m > 0 {
			return nil, fmt.Errorf("stable: dup codec replicates full copies and takes no parity shards (use xor or rs)")
		}
		if k <= 0 {
			k = 2
		}
		return dupCodec{k: k}, nil
	case "xor":
		if m > 1 {
			return nil, fmt.Errorf("stable: xor codec has exactly one parity shard (use rs for m=%d)", m)
		}
		if k <= 0 {
			k = 4
		}
		return xorCodec{k: k}, nil
	case "rs":
		if k <= 0 {
			k = 4
		}
		if m <= 0 {
			m = 2
		}
		if k+m > 255 {
			return nil, fmt.Errorf("stable: rs codec k+m = %d exceeds 255", k+m)
		}
		return rsCodec{k: k, m: m}, nil
	default:
		return nil, fmt.Errorf("stable: unknown codec %q (dup, xor, rs)", name)
	}
}

// codecFor reconstructs the codec a commit marker names, so the read path
// can decode shards written by any configuration. The geometry comes off
// the wire, so it is validated, never trusted.
func codecFor(id uint8, data, parity int) (Codec, error) {
	if data < 1 || parity < 0 || data+parity > 255 {
		return nil, fmt.Errorf("stable: codec geometry k=%d m=%d out of range", data, parity)
	}
	switch id {
	case CodecDup:
		return dupCodec{k: data}, nil
	case CodecXOR:
		if parity != 1 {
			return nil, fmt.Errorf("stable: xor marker with parity %d", parity)
		}
		return xorCodec{k: data}, nil
	case CodecRS:
		return rsCodec{k: data, m: parity}, nil
	default:
		return nil, fmt.Errorf("stable: unknown codec id %d", id)
	}
}

// --- dup: legacy full replication ---

// dupCodec reproduces splitFragments: k nearly equal, unpadded pieces.
// There is no parity; reconstruction needs every piece, and fault tolerance
// comes from the store shipping the full set to both ring neighbors.
type dupCodec struct{ k int }

func (c dupCodec) Name() string      { return "dup" }
func (c dupCodec) ID() uint8         { return CodecDup }
func (c dupCodec) DataShards() int   { return c.k }
func (c dupCodec) ParityShards() int { return 0 }

func (c dupCodec) Encode(blob []byte) ([][]byte, error) {
	return splitFragments(blob, c.k), nil
}

// splitFragments cuts the blob into k nearly equal pieces (fewer when the
// blob is shorter than k bytes; always at least one, possibly empty). Each
// fragment is an independent copy: a sub-slice would keep the entire blob
// reachable for as long as ANY fragment is retained anywhere, so pruning a
// line's other fragments (Retire/Truncate) would reclaim no memory.
func splitFragments(blob []byte, k int) [][]byte {
	if k > len(blob) {
		k = len(blob)
	}
	if k < 1 {
		k = 1
	}
	frags := make([][]byte, 0, k)
	for i := 0; i < k; i++ {
		lo, hi := i*len(blob)/k, (i+1)*len(blob)/k
		frags = append(frags, append(make([]byte, 0, hi-lo), blob[lo:hi]...))
	}
	return frags
}

func (c dupCodec) Decode(shards [][]byte, total int) ([]byte, error) {
	for idx, s := range shards {
		if s == nil {
			return nil, fmt.Errorf("stable: dup fragment %d missing", idx)
		}
	}
	blob := bytes.Join(shards, nil) // a new buffer, as joinShards
	if len(blob) != total {
		return nil, fmt.Errorf("stable: dup reassembly %d/%d bytes", len(blob), total)
	}
	return blob, nil
}

// --- shared erasure-coding shard layout ---

// shardSize is the padded per-shard length for a blob of the given size
// split into k data shards. Always at least 1 so parity math has bytes to
// work on even for empty blobs.
func shardSize(total, k int) int {
	sz := (total + k - 1) / k
	if sz < 1 {
		sz = 1
	}
	return sz
}

// dataShards cuts blob into k shards of sz bytes. A shard that lies wholly
// inside the blob aliases it (capacity clipped, so an append cannot reach
// the next shard); only the tail, where zero padding is needed, is a copy.
func dataShards(blob []byte, k, sz int) [][]byte {
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

// joinShards concatenates k reconstructed data shards into a new buffer and
// trims the padding. bytes.Join allocates without zeroing the bytes it is
// about to overwrite, which make would do first.
func joinShards(shards [][]byte, k, total int) []byte {
	blob := bytes.Join(shards[:k], nil)
	if len(blob) < total {
		return nil
	}
	return blob[:total]
}

// --- xor: k+1, single-loss parity ---

type xorCodec struct{ k int }

func (c xorCodec) Name() string      { return "xor" }
func (c xorCodec) ID() uint8         { return CodecXOR }
func (c xorCodec) DataShards() int   { return c.k }
func (c xorCodec) ParityShards() int { return 1 }

func (c xorCodec) Encode(blob []byte) ([][]byte, error) {
	sz := shardSize(len(blob), c.k)
	shards := dataShards(blob, c.k, sz)
	parity := make([]byte, sz)
	gfMulRows([][]byte{gfOnes(c.k)}, shards, [][]byte{parity}, sz)
	return append(shards, parity), nil
}

func (c xorCodec) Decode(shards [][]byte, total int) ([]byte, error) {
	if len(shards) != c.k+1 {
		return nil, fmt.Errorf("stable: xor expects %d shards, got %d", c.k+1, len(shards))
	}
	missing := -1
	for i := 0; i < c.k; i++ {
		if shards[i] == nil {
			if missing >= 0 {
				return nil, fmt.Errorf("stable: xor cannot repair shards %d and %d (tolerates one loss)", missing, i)
			}
			missing = i
		}
	}
	if missing >= 0 {
		if shards[c.k] == nil {
			return nil, fmt.Errorf("stable: xor shard %d and parity both lost", missing)
		}
		sz := len(shards[c.k])
		have := make([][]byte, 0, c.k)
		for i, s := range shards {
			if i == missing {
				continue
			}
			if len(s) != sz {
				return nil, fmt.Errorf("stable: xor shard %d length %d != %d", i, len(s), sz)
			}
			have = append(have, s)
		}
		repair := make([]byte, sz)
		gfMulRows([][]byte{gfOnes(c.k)}, have, [][]byte{repair}, sz)
		shards = append([][]byte(nil), shards...)
		shards[missing] = repair
	}
	blob := joinShards(shards, c.k, total)
	if blob == nil {
		return nil, fmt.Errorf("stable: xor reassembly shorter than %d bytes", total)
	}
	return blob, nil
}

// --- rs: Reed-Solomon k+m over GF(2^8) ---

// GF(2^8) arithmetic with the 0x11d polynomial (the classic RS field).
// Exp table is doubled so mul can index exp[logA+logB] without a mod.
var gfExp [512]byte
var gfLog [256]byte

// gfMulTable[c][b] = c·b: the per-coefficient product tables the shard
// kernel (gfMulAdd) indexes, one 256-byte row per coefficient (64 KiB in
// all; a row fits in four cache lines). Scalar gfMul builds it and remains
// the arithmetic for matrix construction and the tests' oracle.
var gfMulTable [256][256]byte

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
	for c := range gfMulTable {
		for b := range gfMulTable[c] {
			gfMulTable[c][b] = gfMul(byte(c), byte(b))
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

// gfMulAdd is the parity kernel: dst[i] ^= coef·src[i] for every i. It is
// the one loop every checkpoint byte passes through per parity row, so it
// is a table lookup with no zero tests and no bounds checks, eight bytes
// per iteration; a coefficient of 1 is a plain XOR at memory speed.
func gfMulAdd(dst, src []byte, coef byte) {
	switch coef {
	case 0:
		return
	case 1:
		subtle.XORBytes(dst, dst, src[:len(dst)])
		return
	}
	t := &gfMulTable[coef]
	n := len(dst)
	src = src[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		sw, dw := src[i:i+8:i+8], dst[i:i+8:i+8]
		s := binary.LittleEndian.Uint64(sw)
		p := uint64(t[byte(s)]) | uint64(t[byte(s>>8)])<<8 | uint64(t[byte(s>>16)])<<16 | uint64(t[byte(s>>24)])<<24 |
			uint64(t[byte(s>>32)])<<32 | uint64(t[byte(s>>40)])<<40 | uint64(t[byte(s>>48)])<<48 | uint64(t[byte(s>>56)])<<56
		binary.LittleEndian.PutUint64(dw, binary.LittleEndian.Uint64(dw)^p)
	}
	for ; i < n; i++ {
		dst[i] ^= t[src[i]]
	}
}

// gfStripe is how many bytes of every shard gfMulRows works on at a time:
// one input stripe feeds all output rows while it is still in cache, so
// each input shard is read from memory once however many rows there are.
const gfStripe = 32 << 10

// gfMulRows computes out[r] = Σ_j coef[r][j]·in[j] over shards of sz bytes
// (out rows must start zeroed). It serves Encode (coef = the parity rows of
// the encoding matrix) and Decode (coef = the inverted rows of the missing
// shards) alike. Large shards are split by byte range across GOMAXPROCS
// goroutines; the ranges are disjoint, so the workers share nothing.
func gfMulRows(coef [][]byte, in, out [][]byte, sz int) {
	workers := min(runtime.GOMAXPROCS(0), sz/(4*gfStripe))
	if workers <= 1 {
		gfMulRange(coef, in, out, 0, sz)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*sz/workers, (w+1)*sz/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			gfMulRange(coef, in, out, lo, hi)
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

// gfOnes is the coefficient row of plain XOR parity.
func gfOnes(k int) []byte {
	row := make([]byte, k)
	for i := range row {
		row[i] = 1
	}
	return row
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

func gfIdentity(n int) gfMatrix {
	m := newGFMatrix(n, n)
	for i := 0; i < n; i++ {
		m[i][i] = 1
	}
	return m
}

// mul returns a × b.
func (a gfMatrix) mul(b gfMatrix) gfMatrix {
	rows, inner, cols := len(a), len(b), len(b[0])
	out := newGFMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			var acc byte
			for k := 0; k < inner; k++ {
				acc ^= gfMul(a[i][k], b[k][j])
			}
			out[i][j] = acc
		}
	}
	return out
}

// invert returns the inverse via Gauss-Jordan elimination; it fails only on
// a singular matrix (which the Vandermonde construction rules out for any
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

// rsMatrixCache memoizes encoding matrices per (k, m): the matrix is a
// pure constant of the geometry, and rebuilding it (including a k×k
// inversion) on every commit would be hot-path work for nothing.
var rsMatrixCache sync.Map // [2]int -> gfMatrix

// rsEncodeMatrix returns the systematic (k+m)×k encoding matrix: the top k
// rows are the identity (data shards pass through unchanged), the bottom m
// rows generate parity. It is derived from a (k+m)×k Vandermonde matrix by
// normalizing its top square to the identity; every k×k submatrix of a
// Vandermonde matrix with distinct evaluation points is invertible, a
// property the normalization preserves — so ANY k surviving shards
// reconstruct the data.
func rsEncodeMatrix(k, m int) gfMatrix {
	key := [2]int{k, m}
	if cached, ok := rsMatrixCache.Load(key); ok {
		return cached.(gfMatrix)
	}
	mat := buildRSEncodeMatrix(k, m)
	rsMatrixCache.Store(key, mat)
	return mat
}

func buildRSEncodeMatrix(k, m int) gfMatrix {
	vand := newGFMatrix(k+m, k)
	for r := 0; r < k+m; r++ {
		// Row r evaluates at point r: entry j = r^j.
		e := byte(1)
		for j := 0; j < k; j++ {
			vand[r][j] = e
			e = gfMul(e, gfPoint(r))
		}
	}
	top := newGFMatrix(k, k)
	for i := 0; i < k; i++ {
		copy(top[i], vand[i])
	}
	topInv, err := top.invert()
	if err != nil {
		panic(err) // distinct points: cannot happen
	}
	return vand.mul(topInv)
}

// gfPoint maps a row index to its distinct evaluation point. Index 0 maps
// to 0 so row 0 of the raw Vandermonde is [1 0 0 ...]; all points are
// distinct for r < 256.
func gfPoint(r int) byte { return byte(r) }

type rsCodec struct{ k, m int }

func (c rsCodec) Name() string      { return "rs" }
func (c rsCodec) ID() uint8         { return CodecRS }
func (c rsCodec) DataShards() int   { return c.k }
func (c rsCodec) ParityShards() int { return c.m }

func (c rsCodec) Encode(blob []byte) ([][]byte, error) {
	sz := shardSize(len(blob), c.k)
	shards := dataShards(blob, c.k, sz)
	parity := make([][]byte, c.m)
	for p := range parity {
		parity[p] = make([]byte, sz)
	}
	gfMulRows(rsEncodeMatrix(c.k, c.m)[c.k:], shards, parity, sz)
	return append(shards, parity...), nil
}

func (c rsCodec) Decode(shards [][]byte, total int) ([]byte, error) {
	if len(shards) != c.k+c.m {
		return nil, fmt.Errorf("stable: rs expects %d shards, got %d", c.k+c.m, len(shards))
	}
	// Fast path: all data shards survived.
	allData := true
	for i := 0; i < c.k; i++ {
		if shards[i] == nil {
			allData = false
			break
		}
	}
	if !allData {
		var have []int
		sz := -1
		for i, s := range shards {
			if s == nil {
				continue
			}
			if sz < 0 {
				sz = len(s)
			} else if len(s) != sz {
				return nil, fmt.Errorf("stable: rs shard %d length %d != %d", i, len(s), sz)
			}
			have = append(have, i)
			if len(have) == c.k {
				break
			}
		}
		if len(have) < c.k {
			return nil, fmt.Errorf("stable: rs has %d of %d required shards", len(have), c.k)
		}
		enc := rsEncodeMatrix(c.k, c.m)
		sub := newGFMatrix(c.k, c.k)
		for r, idx := range have {
			copy(sub[r], enc[idx])
		}
		inv, err := sub.invert()
		if err != nil {
			return nil, err
		}
		// Only the missing data shards are recomputed: row d of the
		// inverse rebuilds data shard d from the k survivors.
		repaired := append([][]byte(nil), shards...)
		in := make([][]byte, c.k)
		for r, idx := range have {
			in[r] = shards[idx]
		}
		var rows, out [][]byte
		for d := 0; d < c.k; d++ {
			if repaired[d] == nil {
				repaired[d] = make([]byte, sz)
				rows, out = append(rows, inv[d]), append(out, repaired[d])
			}
		}
		gfMulRows(rows, in, out, sz)
		shards = repaired
	}
	blob := joinShards(shards, c.k, total)
	if blob == nil {
		return nil, fmt.Errorf("stable: rs reassembly shorter than %d bytes", total)
	}
	return blob, nil
}
