package stable

import (
	"fmt"
	"hash/crc32"

	"c3/internal/transport"
	"c3/internal/wire"
)

// The replication protocol's node memory, commit markers and messages. One
// wire protocol serves every DistStore, whichever interconnect carries it.

// replNode is one rank's memory: its own checkpoints plus holdings for
// peers.
type replNode struct {
	local   map[int]*memCkpt
	frags   map[replFragKey][]byte
	commits map[replCommitKey]replCommitRec
}

func newReplNode() *replNode {
	return &replNode{
		local:   make(map[int]*memCkpt),
		frags:   make(map[replFragKey][]byte),
		commits: make(map[replCommitKey]replCommitRec),
	}
}

// prune deletes the fragments and commit markers this node holds for
// owner's versions above version, or below it when above is false.
func (n *replNode) prune(owner, version int, above bool) {
	drop := func(o, v int) bool {
		return o == owner && ((above && v > version) || (!above && v < version))
	}
	for key := range n.frags {
		if drop(key.owner, key.version) {
			delete(n.frags, key)
		}
	}
	for key := range n.commits {
		if drop(key.owner, key.version) {
			delete(n.commits, key)
		}
	}
}

type replFragKey struct {
	owner, version, idx int
}

type replCommitKey struct {
	owner, version int
}

// replCommitRec is the commit marker replicated alongside the fragments:
// the shard geometry and digests recovery validates reassembly against.
// The geometry is the whole codec: (k, m) = (data, frags-data).
type replCommitRec struct {
	frags int      // total shard count (k+m)
	data  int      // shards required to reconstruct (k)
	total int      // original blob length
	sum   uint64   // replSum of the whole blob
	sums  []uint64 // per-shard replSum (corrupt shards count as lost)
	// cross is the cross-group parity holder's rank plus one (0: no
	// cross-group shard — flat topology or single group). Under a grouped
	// topology every codec shard lands inside the owner's group, so a
	// whole-group loss destroys all k+m of them; the cross-group shard is
	// one whole-blob redundancy unit at index frags, held one group over,
	// that keeps the line recoverable through exactly that failure.
	cross int
}

// crossHolder returns the cross-group parity holder and whether one exists.
func (rec replCommitRec) crossHolder() (int, bool) {
	return rec.cross - 1, rec.cross > 0
}

// maxWireRank bounds the cross-group holder a wire-supplied commit marker
// may name. The marker arrives off a socket: an insane value must be
// rejected at decode, not trusted.
const maxWireRank = 4096

// sane validates marker geometry read off the wire: a codec NewCodec could
// have built (1 <= data <= frags <= maxShards; recovery loops and
// allocations scale with frags) and one digest per shard.
func (rec replCommitRec) sane() bool {
	if rec.data < 1 || rec.data > rec.frags || rec.frags > maxShards {
		return false
	}
	if rec.total < 0 || rec.total > wire.MaxLen {
		return false
	}
	if len(rec.sums) != rec.frags {
		return false
	}
	if rec.cross < 0 || rec.cross > maxWireRank {
		return false
	}
	return true
}

// codec returns the codec that produced the marker's shards.
func (rec replCommitRec) codec() rsCodec {
	return newRSCodec(rec.data, rec.frags-rec.data)
}

// shardValid reports whether a held fragment matches the marker's per-shard
// digest. Index frags is the cross-group parity shard (when the marker
// records one): the full blob, validated against the whole-blob digest.
func (rec replCommitRec) shardValid(idx int, frag []byte) bool {
	if _, ok := rec.crossHolder(); ok && idx == rec.frags {
		return len(frag) == rec.total && replSum(frag) == rec.sum
	}
	if idx < 0 || idx >= rec.frags {
		return false
	}
	return replSum(frag) == rec.sums[idx]
}

// landing is one line being restored in place. The blob is allocated once
// from the marker, with capacity for the tail shard's padding, and every
// valid data shard lies at its offset once it is offered: read there
// straight off the wire (expect), or copied there as it arrives. The
// missing ones are rebuilt there from parity (finish). Each data byte is
// digested once, as it lands or as it is rebuilt, and the whole-blob
// digest is combined from those digests. A valid cross-group parity shard
// is copied over the whole blob.
type landing struct {
	rec    replCommitRec
	sz     int
	blob   []byte     // rec.total bytes, capacity k·sz, once allocated
	shards [][]byte   // the valid shards in hand, by index: data shards as their ranges of blob
	sums   []shardCRC // the data shards' digests
	valid  int        // how many shards are in hand
	whole  bool       // a valid cross-group parity shard is the blob
}

// landChunk is how many bytes of a landing shard are digested and then
// copied at a time, so the copy reads them from cache.
const landChunk = 64 << 10

func newLanding(rec replCommitRec) *landing {
	return &landing{
		rec:    rec,
		sz:     shardSize(rec.total, rec.data),
		shards: make([][]byte, rec.frags),
		sums:   make([]shardCRC, rec.data),
	}
}

// allocate allocates the blob if it is not yet. The first fetch calls it
// before its requests go out, so that the answers can be expected into
// their ranges of it.
func (l *landing) allocate() {
	if l.blob == nil {
		l.blob = make([]byte, l.rec.total, l.rec.data*l.sz)
	}
}

// slot is where shard idx lands: its own index for a data shard, 0 for
// every shard when k = 1 (each is the blob itself), and an index at or
// above k for a shard that only feeds the rebuild.
func (l *landing) slot(idx int) int {
	if l.rec.data == 1 {
		return 0
	}
	return idx
}

// expect arms, on net, the answer peer gives to request reqID for shard
// idx, to be read straight into the shard's range of the blob, and returns
// the expectation, or nil when net lands nothing or the shard is not a
// data shard still missing. The landing must settle it before the request
// is given up.
func (l *landing) expect(net transport.Interconnect, peer int, reqID uint64, idx int) *transport.Expectation {
	lander, ok := net.(transport.Lander)
	slot := l.slot(idx)
	if !ok || idx >= l.rec.frags || slot >= l.rec.data || l.shards[slot] != nil {
		return nil
	}
	l.allocate()
	e := &transport.Expectation{From: peer, Reply: encodeDistRespFrag(reqID, true, dataRange(l.blob, slot, l.sz))}
	if !lander.Expect(e) {
		return nil
	}
	return e
}

// settle disarms e (nil: none). A range a reader may still be writing is
// never read or handed out again: if e's is one, the landing moves to a
// fresh blob, taking only the shards already in hand along.
func (l *landing) settle(e *transport.Expectation) {
	if e == nil || e.Cancel() {
		return
	}
	l.blob = nil // left to the reader
	l.allocate()
	for d := range l.sums {
		if src := l.shards[d]; src != nil {
			l.shards[d] = dataRange(l.blob, d, l.sz)
			copy(l.shards[d], src)
		}
	}
}

// done reports whether the shards in hand reconstruct the line.
func (l *landing) done() bool { return l.whole || l.valid >= l.rec.data }

// offer takes a fetched copy of shard idx if it matches the marker's
// digest for that shard, and reports whether it did. A data shard — with
// k = 1 every shard is one, the blob itself — is digested in one pass, 64
// KiB at a time: where it already lies at its offset, read there off the
// wire, in place; anywhere else, copied to its offset chunk by chunk. Its
// range is cleared again if the digest disagrees. A parity shard is kept
// where it lies, for finish to rebuild from. A valid cross-group parity
// shard is copied over the blob. A fragment whose length does not fit the
// marker is refused before any of it is read.
func (l *landing) offer(idx int, frag []byte) bool {
	rec, k := l.rec, l.rec.data
	if _, ok := rec.crossHolder(); ok && idx == rec.frags {
		if l.whole || !rec.shardValid(idx, frag) {
			return false
		}
		l.allocate()
		copy(l.blob, frag)
		l.whole = true
		return true
	}
	slot := l.slot(idx)
	if idx < 0 || idx >= rec.frags || len(frag) != l.sz || l.shards[slot] != nil {
		return false
	}
	if slot >= k {
		if !rec.shardValid(idx, frag) {
			return false
		}
		l.shards[slot] = frag
		l.valid++
		return true
	}
	l.allocate()
	dst, n := dataRange(l.blob, slot, l.sz), len(blobPart(l.blob, slot, l.sz))
	landed := &frag[0] == &dst[0]
	var sum shardCRC
	for lo := 0; lo < len(frag); lo += landChunk {
		hi := min(lo+landChunk, len(frag))
		sum.update(frag[lo:hi], lo, n)
		if !landed {
			copy(dst[lo:hi], frag[lo:hi])
		}
	}
	if sum.padded() != rec.sums[idx] {
		clear(dst)
		return false
	}
	l.shards[slot], l.sums[slot] = dst, sum
	l.valid++
	return true
}

// finish rebuilds the missing data shards into their offsets and checks
// the line against its marker: every rebuilt shard against its own
// digest, and the whole blob against the marker's sum, combined from the
// data shards' in-blob digests rather than read again.
func (l *landing) finish() ([]byte, error) {
	if l.whole {
		return l.blob, nil
	}
	l.allocate()
	if err := l.rec.codec().rebuild(l.blob, l.sz, l.shards, l.sums); err != nil {
		return nil, err
	}
	var whole uint32
	for d, sum := range l.sums {
		if l.shards[d] == nil && sum.padded() != l.rec.sums[d] {
			return nil, fmt.Errorf("stable: rebuilt shard %d fails its digest", d)
		}
		whole = crcCombine(whole, sum.in, sum.inLen)
	}
	if uint64(whole) != l.rec.sum {
		return nil, fmt.Errorf("stable: reassembly digest mismatch (%d bytes)", l.rec.total)
	}
	return l.blob, nil
}

type replAckKey struct {
	owner, version, from int
}

// replSum is the one digest of the storage plane: CRC-32C (Castagnoli),
// which the standard library computes with the CPU's CRC instructions at
// memory speed. It guards against corruption — a flipped bit, a torn or
// misplaced shard — not against an adversary. It is carried as a u64 so
// markers and frames keep their layout.
func replSum(b []byte) uint64 { return uint64(crc32.Checksum(b, castagnoli)) }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcCombine returns the CRC-32C of a||b from crcA = crc(a), crcB = crc(b)
// and lenB = len(b), without reading either: zlib's crc32_combine. Feeding
// lenB zero bytes through the CRC register multiplies it by x^(8·lenB)
// modulo the polynomial, and that power is a product of O(log lenB)
// repeated squares of x^8.
func crcCombine(crcA, crcB uint32, lenB int) uint32 {
	xn := uint32(1) << 31 // x^0: bit 31-i holds the coefficient of x^i
	sq := uint32(1) << 23 // x^8, one zero byte
	for n := lenB; n > 0; n >>= 1 {
		if n&1 != 0 {
			xn = crcMulModP(sq, xn)
		}
		sq = crcMulModP(sq, sq)
	}
	return crcMulModP(xn, crcA) ^ crcB
}

// crcMulModP returns a·b modulo the Castagnoli polynomial, both in the
// CRC's reflected bit order; a must be nonzero (zlib's multmodp).
func crcMulModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; ; m >>= 1 {
		if a&m != 0 {
			p ^= b
			if a&(m-1) == 0 {
				return p
			}
		}
		if b&1 != 0 {
			b = b>>1 ^ 0x82f63b78
		} else {
			b >>= 1
		}
	}
}

// shardCRC is the CRC-32C of a run of one data shard's bytes, kept in two
// parts: the bytes that lie in the blob, and the zero padding past the
// blob's end that only the tail shard has. The marker's per-shard digest
// covers both; the whole-blob digest is combined from the first.
type shardCRC struct {
	in, pad       uint32
	inLen, padLen int
}

// update digests b, the bytes at offset at of a shard whose first n bytes
// lie in the blob, appending them to the run.
func (c *shardCRC) update(b []byte, at, n int) {
	cut := min(max(n-at, 0), len(b))
	c.in = crc32.Update(c.in, castagnoli, b[:cut])
	c.pad = crc32.Update(c.pad, castagnoli, b[cut:])
	c.inLen += cut
	c.padLen += len(b) - cut
}

// then is the run c followed by the run d of the same shard.
func (c shardCRC) then(d shardCRC) shardCRC {
	return shardCRC{
		in: crcCombine(c.in, d.in, d.inLen), pad: crcCombine(c.pad, d.pad, d.padLen),
		inLen: c.inLen + d.inLen, padLen: c.padLen + d.padLen,
	}
}

// padded is the digest of the whole run, padding included: what the
// marker records for the shard.
func (c shardCRC) padded() uint64 { return uint64(crcCombine(c.in, c.pad, c.padLen)) }

// blobPart is the part of data shard d that lies in the blob: its sz bytes
// at offset d·sz, cut at the blob's end.
func blobPart(blob []byte, d, sz int) []byte {
	return blob[min(d*sz, len(blob)):min((d+1)*sz, len(blob))]
}

// crcZeros extends crc, the CRC-32C of some bytes, by n zero bytes.
func crcZeros(crc uint32, n int) uint32 {
	var zeros [512]byte
	for ; n > 0; n -= len(zeros) {
		crc = crc32.Update(crc, castagnoli, zeros[:min(n, len(zeros))])
	}
	return crc
}

// Message kinds: the replication write path, then the recovery queries.
const (
	replMsgFrag uint8 = iota + 1
	replMsgCommit
	replMsgAck
)

const (
	distMsgQueryLast uint8 = iota + 16
	distMsgRespLast
	distMsgQueryFrag
	distMsgRespFrag
	distMsgPrune
)

// replPayload lets the transport count and delay replication bytes.
type replPayload []byte

// TransportSize implements transport.Sizer.
func (p replPayload) TransportSize() int { return len(p) }

// WireKind implements transport.WirePayload, so replication traffic can
// cross the TCP mesh in multi-process deployments unchanged.
func (p replPayload) WireKind() uint8 { return transport.WireKindRepl }

// MarshalWire implements transport.WirePayload: the payload already is its
// own wire encoding.
func (p replPayload) MarshalWire() []byte { return p }

// The decoder keeps the bytes it is handed (DecodeWirePayload's contract:
// nobody modifies them afterwards; the TCP mesh reads every frame it
// decodes into an allocation of its own). A fragment a daemon stores is
// then a sub-slice of exactly one received frame — it pins that frame's
// few header bytes and nothing larger. A fragment answer a restore expects
// is not decoded at all: it arrives as the fragPayload the restore armed,
// its body already in the restore's blob.
func init() {
	transport.RegisterWireDecoder(transport.WireKindRepl, func(data []byte) (any, error) {
		return replPayload(data), nil
	})
}

// fragPayload is a message that carries one fragment — a commit's shard on
// its way to a holder, or a holder's answer to a fragment query — without
// copying it: the encoded header, whose last field is the fragment's
// length, and a view of the fragment where it lies, in the owner's blob or
// in the holder's memory. Neither is written while the message is in
// flight. The TCP mesh writes the two in one writev. The in-memory
// interconnect hands the value itself to the receiving daemon, which copies
// a commit's fragment into one buffer of its own (MarshalWire), so the
// fragment a holder stores never pins the owner's blob, and routes an
// answer as it is to the restore, which copies the fragment once, into its
// blob. A restore also arms a fragPayload as the answer it expects
// (landing.expect): the head it will read and its blob's range for the
// body. A mesh that lands a frame there delivers that value, and that
// range is the one buffer the frame's body was read into.
type fragPayload struct{ head, body []byte }

// TransportSize implements transport.Sizer.
func (p fragPayload) TransportSize() int { return len(p.head) + len(p.body) }

// WireKind implements transport.WirePayload.
func (p fragPayload) WireKind() uint8 { return transport.WireKindRepl }

// WireParts implements transport.SplitPayload.
func (p fragPayload) WireParts() (head, body []byte) { return p.head, p.body }

// MarshalWire implements transport.WirePayload: head and body joined in a
// new buffer, the payload as it arrives off a socket, which is also the
// in-memory receiver's own copy. append allocates at the final size
// without zeroing the bytes it is about to overwrite.
func (p fragPayload) MarshalWire() []byte {
	return append(append(make([]byte, 0, len(p.head)+len(p.body)), p.head...), p.body...)
}

// The fragment header names the line and the shard index; the geometry
// travels in the marker alone, which reassembly validates against.
func encodeReplFrag(owner, version, idx int, frag []byte) fragPayload {
	w := wire.NewWriter(replFragHeader)
	w.U8(replMsgFrag)
	w.Int(owner)
	w.Int(version)
	w.Int(idx)
	w.U32(uint32(len(frag)))
	return fragPayload{head: w.Bytes(), body: frag}
}

// replFragHeader is the encoded size of a fragment payload's fixed fields.
const replFragHeader = 1 + 8 + 8 + 8 + 4

func decodeReplFrag(data replPayload) (owner, version, idx int, frag []byte, err error) {
	r := wire.NewReader(data[1:])
	owner, version, idx = r.Int(), r.Int(), r.Int()
	frag = r.View32() // aliases data: one fragment per payload, so it pins only itself
	return owner, version, idx, frag, r.Err()
}

// writeReplRec and readReplRec (de)serialize a commit marker's record; the
// same layout is embedded in the last-committed query responses.
func writeReplRec(w *wire.Writer, rec replCommitRec) {
	w.Int(rec.frags)
	w.Int(rec.data)
	w.Int(rec.total)
	w.U64(rec.sum)
	w.U64s(rec.sums)
	w.Int(rec.cross)
}

func readReplRec(r *wire.Reader) replCommitRec {
	return replCommitRec{
		frags: r.Int(),
		data:  r.Int(),
		total: r.Int(),
		sum:   r.U64(),
		sums:  r.U64s(),
		cross: r.Int(),
	}
}

// replRecWireMin is the minimum serialized size of a replCommitRec, for
// count clamping in repeated decoders.
const replRecWireMin = 8 + 8 + 8 + 8 + 4 + 8

func encodeReplCommit(owner, version int, rec replCommitRec) replPayload {
	w := wire.NewWriter(56 + 8*len(rec.sums))
	w.U8(replMsgCommit)
	w.Int(owner)
	w.Int(version)
	writeReplRec(w, rec)
	return replPayload(w.Bytes())
}

func decodeReplCommit(data replPayload) (owner, version int, rec replCommitRec, err error) {
	r := wire.NewReader(data[1:])
	owner, version = r.Int(), r.Int()
	rec = readReplRec(r)
	if err := r.Err(); err != nil {
		return owner, version, rec, err
	}
	if !rec.sane() {
		return owner, version, rec, fmt.Errorf("stable: insane commit marker geometry (frags=%d data=%d total=%d)", rec.frags, rec.data, rec.total)
	}
	return owner, version, rec, nil
}

func encodeReplAck(owner, version, from int) replPayload {
	w := wire.NewWriter(24)
	w.U8(replMsgAck)
	w.Int(owner)
	w.Int(version)
	w.Int(from)
	return replPayload(w.Bytes())
}

func decodeReplAck(data replPayload) (owner, version, from int, err error) {
	r := wire.NewReader(data[1:])
	owner, version, from = r.Int(), r.Int(), r.Int()
	return owner, version, from, r.Err()
}

func encodeDistQueryLast(reqID uint64, owner int) replPayload {
	w := wire.NewWriter(24)
	w.U8(distMsgQueryLast)
	w.U64(reqID)
	w.Int(owner)
	return replPayload(w.Bytes())
}

func decodeDistQueryLast(data replPayload) (reqID uint64, owner int, err error) {
	r := wire.NewReader(data[1:])
	reqID = r.U64()
	owner = r.Int()
	return reqID, owner, r.Err()
}

func encodeDistRespLast(reqID uint64, entries []distLastEntry) replPayload {
	w := wire.NewWriter(16 + 96*len(entries))
	w.U8(distMsgRespLast)
	w.U64(reqID)
	w.U32(uint32(len(entries)))
	for _, e := range entries {
		w.Int(e.version)
		writeReplRec(w, e.rec)
		w.Ints(e.held)
	}
	return replPayload(w.Bytes())
}

func decodeDistRespLast(data replPayload) (reqID uint64, entries []distLastEntry, err error) {
	r := wire.NewReader(data[1:])
	reqID = r.U64()
	n := r.Count(8 + replRecWireMin + 4) // minimum bytes per serialized entry
	for i := 0; i < n; i++ {
		e := distLastEntry{version: r.Int()}
		e.rec = readReplRec(r)
		e.held = r.Ints()
		if r.Err() != nil {
			break
		}
		if !e.rec.sane() {
			return reqID, nil, fmt.Errorf("stable: insane marker geometry in last-committed response (frags=%d data=%d total=%d)",
				e.rec.frags, e.rec.data, e.rec.total)
		}
		entries = append(entries, e)
	}
	if err := r.Err(); err != nil {
		return reqID, nil, fmt.Errorf("stable: corrupt last-committed response: %w", err)
	}
	return reqID, entries, nil
}

func encodeDistQueryFrag(reqID uint64, owner, version, idx int) replPayload {
	w := wire.NewWriter(40)
	w.U8(distMsgQueryFrag)
	w.U64(reqID)
	w.Int(owner)
	w.Int(version)
	w.Int(idx)
	return replPayload(w.Bytes())
}

func decodeDistQueryFrag(data replPayload) (reqID uint64, owner, version, idx int, err error) {
	r := wire.NewReader(data[1:])
	reqID = r.U64()
	owner, version, idx = r.Int(), r.Int(), r.Int()
	return reqID, owner, version, idx, r.Err()
}

// encodeDistRespFrag answers a fragment query with a view of the stored
// fragment, which no holder ever modifies.
func encodeDistRespFrag(reqID uint64, found bool, frag []byte) fragPayload {
	w := wire.NewWriter(1 + 8 + 1 + 4)
	w.U8(distMsgRespFrag)
	w.U64(reqID)
	w.Bool(found)
	w.U32(uint32(len(frag)))
	return fragPayload{head: w.Bytes(), body: frag}
}

// decodeDistRespFrag decodes a fragment answer: joined in data, or its
// head in data and the fragment in body, which the head's length must
// match.
func decodeDistRespFrag(data replPayload, body []byte) (reqID uint64, found bool, frag []byte, err error) {
	r := wire.NewReader(data[1:])
	reqID = r.U64()
	found = r.Bool()
	if body == nil {
		frag = r.View32() // aliases the response, which carries this one fragment
	} else if n := r.U32(); r.Err() == nil && int(n) != len(body) {
		return reqID, found, nil, fmt.Errorf("stable: fragment answer of %d bytes, head says %d", len(body), n)
	} else {
		frag = body
	}
	return reqID, found, frag, r.Err()
}

func encodeDistPrune(owner, version int, above bool) replPayload {
	w := wire.NewWriter(24)
	w.U8(distMsgPrune)
	w.Int(owner)
	w.Int(version)
	w.Bool(above)
	return replPayload(w.Bytes())
}

func decodeDistPrune(data replPayload) (owner, version int, above bool, err error) {
	r := wire.NewReader(data[1:])
	owner, version = r.Int(), r.Int()
	above = r.Bool()
	return owner, version, above, r.Err()
}

// peekDistReqID extracts the request id from a response payload without
// fully decoding it, for routing to the right waiter.
func peekDistReqID(data replPayload) (uint64, bool) {
	if len(data) < 9 {
		return 0, false
	}
	r := wire.NewReader(data[1:9])
	id := r.U64()
	return id, r.Err() == nil
}
