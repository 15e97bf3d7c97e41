package stable

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"

	"c3/internal/member"
	"c3/internal/transport"
	"c3/internal/wire"
)

// ReplicatedStore is a diskless, ReStore-style stable store: every rank
// keeps its own checkpoints in node-local memory and, at commit time,
// spreads the checkpoint's fragments to its +1/+2 neighbor ranks over a
// dedicated replication interconnect (an internal/transport network, so
// replication traffic has FIFO ordering, latency modeling and delivery
// counters like any other interconnect in the reproduction).
//
// Failure model: when the runtime injects a fail-stop failure it calls
// FailNode, which wipes everything in the failed node's memory — its own
// checkpoints and the replica fragments it held for peers — and invalidates
// replication messages still in flight toward it (they belong to the dead
// incarnation). The restarted rank's recovery then finds no local copy and
// reassembles its last committed line from the fragments surviving on peer
// nodes; a committed line is lost only if the owner and both replica
// holders fail together.
//
// Commit is synchronous-replicated: it returns once every live neighbor has
// acknowledged the fragments and the commit marker, so a line reported
// committed is immediately recoverable from peers. Combined with the ckpt
// layer's asynchronous commit pipeline, the acknowledgment wait happens on
// the background committer, off the application's critical path.
type ReplicatedStore struct {
	n         int
	codec     Codec
	groupSize int // checkpoint group size g; 0 = flat world
	net       *transport.Network

	mu       sync.Mutex
	cond     *sync.Cond
	members  member.Set
	nodes    []*replNode
	awaiting map[replAckKey]bool
	closed   bool

	bytesWritten    int64
	replicatedBytes int64
	reassemblies    int64
	migrations      int64

	wg sync.WaitGroup
}

// replNode is one rank's memory: its own checkpoints plus holdings for
// peers. incarnation advances on FailNode so in-flight replication traffic
// addressed to the dead incarnation is dropped instead of resurrecting
// state the failure destroyed.
type replNode struct {
	incarnation uint64
	local       map[int]*memCkpt
	frags       map[replFragKey][]byte
	commits     map[replCommitKey]replCommitRec
}

type replFragKey struct {
	owner, version, idx int
}

type replCommitKey struct {
	owner, version int
}

// replCommitRec is the commit marker replicated alongside the fragments:
// the shard geometry and digests recovery validates reassembly against.
type replCommitRec struct {
	codec uint8    // CodecDup, CodecXOR, CodecRS
	frags int      // total shard count (k+m; k for dup)
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

// need is the number of distinct valid shards reassembly requires.
func (rec replCommitRec) need() int {
	if rec.data > 0 {
		return rec.data
	}
	return rec.frags
}

// maxWireShards bounds the shard count a wire-supplied commit marker may
// claim. Recovery loops and allocations scale with rec.frags, and the
// marker arrives off a socket — an insane value must be rejected at
// decode, not trusted.
const maxWireShards = 4096

// sane validates marker geometry read off the wire.
func (rec replCommitRec) sane() bool {
	if rec.frags < 1 || rec.frags > maxWireShards {
		return false
	}
	if rec.data < 0 || rec.data > rec.frags {
		return false
	}
	if rec.total < 0 || rec.total > wire.MaxLen {
		return false
	}
	if len(rec.sums) != 0 && len(rec.sums) != rec.frags {
		return false
	}
	if rec.cross < 0 || rec.cross > maxWireShards {
		return false
	}
	return true
}

// codecOf reconstructs the codec that produced the marker's shards.
func (rec replCommitRec) codecOf() (Codec, error) {
	return codecFor(rec.codec, rec.need(), rec.frags-rec.need())
}

// shardValid reports whether a held fragment matches the marker's per-shard
// digest; markers from the pre-digest era (empty sums) accept any bytes and
// rely on the whole-blob digest alone. Index frags is the cross-group
// parity shard (when the marker records one): the full blob, validated
// against the whole-blob digest.
func (rec replCommitRec) shardValid(idx int, frag []byte) bool {
	if _, ok := rec.crossHolder(); ok && idx == rec.frags {
		return len(frag) == rec.total && replSum(frag) == rec.sum
	}
	if idx < 0 || idx >= rec.frags {
		return false
	}
	if len(rec.sums) != rec.frags {
		return true
	}
	return replSum(frag) == rec.sums[idx]
}

type replAckKey struct {
	owner, version, from int
}

// Replication message kinds.
const (
	replMsgFrag uint8 = iota + 1
	replMsgCommit
	replMsgAck
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
// nobody modifies them afterwards; the TCP mesh reads every frame into an
// allocation of its own). A fragment a daemon stores is then a sub-slice of
// exactly one received frame — it pins that frame's few header bytes and
// nothing larger.
func init() {
	transport.RegisterWireDecoder(transport.WireKindRepl, func(data []byte) (any, error) {
		return replPayload(data), nil
	})
}

// ReplicatedOption configures a ReplicatedStore.
type ReplicatedOption func(*replicatedConfig)

type replicatedConfig struct {
	fragments int
	codec     Codec
	groupSize int
	netOpts   []transport.Option
}

// WithFragments sets how many pieces each checkpoint blob is split into
// before replication under the default dup codec (default 2). More
// fragments spread replication load in finer grains; every fragment still
// goes to both neighbors. Ignored when WithCodec installs an erasure codec.
func WithFragments(k int) ReplicatedOption {
	return func(c *replicatedConfig) { c.fragments = k }
}

// WithCodec replaces the default full-replication (dup) scheme with the
// given fragment codec: the blob's k+m shards are placed on k+m distinct
// ring successors (parity rotated per owner) instead of full copies on the
// +1/+2 neighbors, and the owner keeps no full local copy — any k shards
// reconstruct the line on demand.
func WithCodec(codec Codec) ReplicatedOption {
	return func(c *replicatedConfig) { c.codec = codec }
}

// WithGroupSize partitions the world into checkpoint groups of g
// consecutive ring slots (member.Topology): shards stay on group-local
// successors and every line additionally ships one cross-group parity
// shard (the whole blob) to the next group, so even losing an entire
// group at once leaves the line recoverable. g <= 1 keeps the flat world.
func WithGroupSize(g int) ReplicatedOption {
	return func(c *replicatedConfig) { c.groupSize = g }
}

// WithReplicationLatency applies a latency model to the replication
// interconnect, so experiments can price remote-memory checkpointing
// against local disk.
func WithReplicationLatency(m transport.LatencyModel) ReplicatedOption {
	return func(c *replicatedConfig) { c.netOpts = append(c.netOpts, transport.WithLatency(m)) }
}

// NewReplicatedStore creates a replicated in-memory store for a world of n
// ranks. The store owns n replication daemons (one per node); call Close
// when done with it.
func NewReplicatedStore(n int, opts ...ReplicatedOption) *ReplicatedStore {
	if n <= 0 {
		panic("stable: replicated store needs a positive world size")
	}
	cfg := replicatedConfig{fragments: 2}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.fragments < 1 {
		cfg.fragments = 1
	}
	if cfg.codec == nil {
		cfg.codec = dupCodec{k: cfg.fragments}
	}
	if cfg.codec.ParityShards() > 0 && n < 2 {
		panic("stable: erasure codecs need at least one peer rank")
	}
	s := &ReplicatedStore{
		n:         n,
		codec:     cfg.codec,
		groupSize: cfg.groupSize,
		net:       transport.NewNetwork(n, cfg.netOpts...),
		members:   member.Launch(n),
		nodes:     make([]*replNode, n),
		awaiting:  make(map[replAckKey]bool),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := range s.nodes {
		s.nodes[i] = newReplNode()
	}
	for i := 0; i < n; i++ {
		s.wg.Add(1)
		go s.daemon(i)
	}
	return s
}

func newReplNode() *replNode {
	return &replNode{
		local:   make(map[int]*memCkpt),
		frags:   make(map[replFragKey][]byte),
		commits: make(map[replCommitKey]replCommitRec),
	}
}

// Close shuts the replication fabric and daemons down. Outstanding commits
// unblock with their current acknowledgment state.
func (s *ReplicatedStore) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.net.Shutdown()
	s.wg.Wait()
}

// shardHolder is the fixed-world placement formula kept for reference and
// regression tests: member.Set.ShardHolder reduces to it exactly when the
// members are 0..n-1 (pinned by internal/member's tests), so committed
// lines keep their holders across the membership refactor.
func shardHolder(owner, idx, shards, n int) int {
	span := shards
	if span > n-1 {
		span = n - 1
	}
	pos := (idx + owner) % shards % span
	return (owner + 1 + pos) % n
}

// shardPlan maps every shard index of one commit to its holder rank and
// returns the distinct holder set (ascending ring order from owner+1).
func shardPlan(owner, shards, n int) (holderOf []int, holders []int) {
	holderOf = make([]int, shards)
	seen := make(map[int]bool, shards)
	for idx := 0; idx < shards; idx++ {
		h := shardHolder(owner, idx, shards, n)
		holderOf[idx] = h
		if !seen[h] {
			seen[h] = true
			holders = append(holders, h)
		}
	}
	return holderOf, holders
}

// NetworkStats returns the replication interconnect's delivery counters.
func (s *ReplicatedStore) NetworkStats() transport.Stats { return s.net.Stats() }

// BytesWritten returns the section bytes written to node-local memory.
func (s *ReplicatedStore) BytesWritten() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytesWritten
}

// ReplicatedBytes returns the fragment bytes shipped to peer nodes.
func (s *ReplicatedStore) ReplicatedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replicatedBytes
}

// Reassemblies reports how many checkpoints were rebuilt from peer
// fragments because the owner's local copy was gone — the disk-free
// recovery path.
func (s *ReplicatedStore) Reassemblies() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reassemblies
}

// StoredBytes returns the checkpoint bytes currently resident across all
// node memories: full local copies plus replica shards. Divided by the
// world size it is the per-rank memory tax the codec ablation measures.
func (s *ReplicatedStore) StoredBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t int64
	for _, node := range s.nodes {
		for _, ck := range node.local {
			for _, d := range ck.sections {
				t += int64(len(d))
			}
		}
		for _, f := range node.frags {
			t += int64(len(f))
		}
	}
	return t
}

// Members returns the membership current placement runs against.
func (s *ReplicatedStore) Members() member.Set {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.members
}

// topology derives the current checkpoint-group topology; callers hold
// s.mu.
func (s *ReplicatedStore) topology() member.Topology {
	return member.NewTopology(s.members, s.groupSize)
}

// Topology returns the checkpoint-group topology placement runs against.
func (s *ReplicatedStore) Topology() member.Topology {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.topology()
}

// Migrations reports how many committed lines were re-placed by
// SetMembership.
func (s *ReplicatedStore) Migrations() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.migrations
}

// SetMembership installs a new member ring and actively re-partitions the
// committed lines of every member owner onto it: each line's shards are
// recomputed against the new ring (reconstructing lost ones through the
// codec when at least k survive) and installed on the new holders, and
// holdings on ranks the new plan no longer assigns are dropped. After it
// returns, every line that was reconstructible before the change is again
// reconstructible with the full ≤m loss tolerance under the new ring —
// the in-memory analogue of ReStore's re-distribution. Lines owned by
// ranks outside the new membership are left where they are: a drained
// owner's lines are retired with it, not rebalanced.
func (s *ReplicatedStore) SetMembership(m member.Set) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m.SameMembers(s.members) {
		s.members = m
		return
	}
	s.members = m
	// Collect every committed line (marker may survive on several holders;
	// they are identical for one (owner, version)).
	lines := make(map[replCommitKey]replCommitRec)
	for _, node := range s.nodes {
		for key, rec := range node.commits {
			lines[key] = rec
		}
	}
	topo := s.topology()
	for key, rec := range lines {
		if !m.Contains(key.owner) {
			continue
		}
		codec, err := rec.codecOf()
		if err != nil {
			continue
		}
		sendPlan, holders, _, parity := commitPlan(codec, key.owner, rec.frags, topo)
		shards, blob := s.gatherShards(key.owner, key.version, rec, parity >= 0)
		if shards == nil {
			continue // already below k survivors; nothing to re-place
		}
		oldFrags := rec.frags
		rec.cross = parity + 1
		held := make(map[int]bool, len(holders))
		for _, h := range holders {
			held[h] = true
		}
		for _, nb := range holders {
			s.nodes[nb].commits[key] = rec
			for _, idx := range sendPlan[nb] {
				frag := blob // the cross-group parity shard is the blob itself
				if idx < rec.frags {
					frag = shards[idx]
				}
				if frag == nil {
					continue // incomplete dup line: move what survives
				}
				s.nodes[nb].frags[replFragKey{owner: key.owner, version: key.version, idx: idx}] =
					append([]byte(nil), frag...)
			}
		}
		for r, node := range s.nodes {
			if held[r] {
				continue
			}
			delete(node.commits, key)
			for idx := 0; idx <= oldFrags; idx++ {
				delete(node.frags, replFragKey{owner: key.owner, version: key.version, idx: idx})
			}
		}
		s.migrations++
	}
}

// gatherShards assembles the full digest-valid shard set of one line,
// reconstructing missing shards through the codec — or from a surviving
// cross-group parity shard — when possible. It also returns the whole
// blob when a surviving parity shard supplies it or wantBlob forces a
// rebuild (the new plan needs a parity shard to install). Returns
// (nil, nil) when the line is unreconstructible; a reconstruction failure
// falls back to the surviving shards (nil gaps), which still carry
// everything the old ring held.
func (s *ReplicatedStore) gatherShards(owner, version int, rec replCommitRec, wantBlob bool) ([][]byte, []byte) {
	shards := make([][]byte, rec.frags)
	valid := 0
	for idx := range shards {
		if frag, ok := s.findFrag(owner, version, idx, rec); ok {
			shards[idx] = frag
			valid++
		}
	}
	var blob []byte
	if _, ok := rec.crossHolder(); ok {
		if g, found := s.findFrag(owner, version, rec.frags, rec); found {
			blob = g
		}
	}
	if valid < rec.need() && blob == nil {
		return nil, nil
	}
	if valid == rec.frags && (blob != nil || !wantBlob) {
		return shards, blob
	}
	// Rebuild the missing pieces so the new ring starts at full parity.
	all := shards
	if blob != nil {
		all = append(append(make([][]byte, 0, rec.frags+1), shards...), blob)
	}
	if sections, err := reassembleSections(rec, all); err == nil {
		if codec, err := rec.codecOf(); err == nil {
			b := encodeReplSections(sections)
			if full, err := codec.Encode(b); err == nil && len(full) == rec.frags {
				return full, b
			}
		}
	}
	return shards, blob
}

// FailNode implements NodeFailer: the node's memory is lost and in-flight
// replication traffic toward it belongs to a dead incarnation.
func (s *ReplicatedStore) FailNode(rank int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nodes[rank].incarnation++
	s.nodes[rank].local = make(map[int]*memCkpt)
	s.nodes[rank].frags = make(map[replFragKey][]byte)
	s.nodes[rank].commits = make(map[replCommitKey]replCommitRec)
	s.cond.Broadcast() // release commits waiting on this node's acks
}

// --- Write path ---

type replHandle struct {
	store    *ReplicatedStore
	rank     int
	version  int
	sections map[string][]byte
	done     bool
	stored   int64
}

// StoredSize reports the stable-storage bytes this commit occupies across
// the world (local copy plus replica shards) — the numerator of the
// storage-overhead ratio the ckpt stats expose as StoredBytes.
func (h *replHandle) StoredSize() int64 { return h.stored }

// Begin implements Store.
func (s *ReplicatedStore) Begin(rank, version int) (Checkpoint, error) {
	s.mu.Lock()
	delete(s.nodes[rank].local, version) // discard uncommitted stale data
	s.mu.Unlock()
	return &replHandle{store: s, rank: rank, version: version, sections: make(map[string][]byte)}, nil
}

func (h *replHandle) WriteSection(name string, data []byte) error {
	if h.done {
		return fmt.Errorf("stable: write to finished checkpoint (%d,%d)", h.rank, h.version)
	}
	h.sections[name] = append([]byte(nil), data...)
	h.store.mu.Lock()
	h.store.bytesWritten += int64(len(data))
	h.store.mu.Unlock()
	return nil
}

func (h *replHandle) Abort() error {
	h.done = true
	return nil
}

// shardSums digests every shard for the commit marker, so recovery can
// reject a corrupt shard and repair it from parity instead of failing the
// whole-blob digest check.
func shardSums(shards [][]byte) []uint64 {
	sums := make([]uint64, len(shards))
	for i, s := range shards {
		sums[i] = replSum(s)
	}
	return sums
}

// commitPlan is the shared placement decision of both diskless stores,
// computed over the current topology. On a flat (single-group) topology
// the ring is the whole membership: for the dup codec every shard goes to
// both ring successors and the owner keeps a full local copy; for an
// erasure codec each shard goes to exactly one distinct ring successor
// (rotated placement) and no local copy is kept — the memory saving that
// is the codec's point. With members 0..n-1 the plan is identical to the
// fixed-world plan, so existing lines keep their holders until the
// membership actually changes.
//
// Under a grouped topology the same formulas run over the owner's
// group-local ring (so commit traffic never leaves the group), and one
// additional cross-group parity shard — the whole blob, at index shards —
// is assigned to topo.ParityHolder(owner) in the next group, keeping the
// line recoverable through a whole-group loss. parity is that holder's
// rank, or -1 when the topology has a single group.
func commitPlan(codec Codec, owner, shards int, topo member.Topology) (sendPlan map[int][]int, holders []int, keepLocal bool, parity int) {
	ring := topo.Set()
	if !topo.Flat() {
		ring = topo.GroupSetOf(owner)
	}
	if codec.ParityShards() == 0 {
		holders = ring.Successors(owner, 2)
		all := make([]int, shards)
		for i := range all {
			all[i] = i
		}
		sendPlan = make(map[int][]int, len(holders)+1)
		for _, nb := range holders {
			sendPlan[nb] = all
		}
		keepLocal = true
	} else {
		holderOf, hs := ring.ShardPlan(owner, shards)
		holders = hs
		sendPlan = make(map[int][]int, len(holders)+1)
		for idx, hr := range holderOf {
			sendPlan[hr] = append(sendPlan[hr], idx)
		}
	}
	parity = topo.ParityHolder(owner)
	if parity == owner {
		parity = -1
	}
	if parity >= 0 {
		sendPlan[parity] = append(sendPlan[parity], shards)
		holders = append(holders, parity)
	}
	return sendPlan, holders, keepLocal, parity
}

// sectionsBytes sums a checkpoint's raw section sizes.
func sectionsBytes(sections map[string][]byte) int64 {
	var t int64
	for _, d := range sections {
		t += int64(len(d))
	}
	return t
}

// Commit encodes the checkpoint through the store's codec, ships the
// shards and commit marker to their holders, and waits until every live
// holder has acknowledged them. Under the dup codec the holders are the
// +1/+2 neighbors (full copies, local copy kept); under an erasure codec
// each shard lands on its own ring successor and no local copy is kept.
func (h *replHandle) Commit() error {
	if h.done {
		return fmt.Errorf("stable: commit of finished checkpoint (%d,%d)", h.rank, h.version)
	}
	h.done = true
	s := h.store

	blob := encodeReplSections(h.sections)
	shards, err := s.codec.Encode(blob)
	if err != nil {
		return fmt.Errorf("stable: encode checkpoint (%d,%d): %w", h.rank, h.version, err)
	}
	s.mu.Lock()
	sendPlan, holders, keepLocal, parity := commitPlan(s.codec, h.rank, len(shards), s.topology())
	// units extends the codec shards with the cross-group parity shard
	// (the whole blob, at index len(shards)) when the topology assigns one.
	units := shards
	if parity >= 0 {
		units = append(append(make([][]byte, 0, len(shards)+1), shards...), blob)
	}
	rec := replCommitRec{
		codec: s.codec.ID(),
		frags: len(shards),
		data:  s.codec.DataShards(),
		total: len(blob),
		sum:   replSum(blob),
		sums:  shardSums(shards),
		cross: parity + 1,
	}
	type target struct {
		rank int
		inc  uint64
	}
	targets := make([]target, 0, len(holders))
	for _, nb := range holders {
		targets = append(targets, target{rank: nb, inc: s.nodes[nb].incarnation})
		s.awaiting[replAckKey{owner: h.rank, version: h.version, from: nb}] = false
		for _, idx := range sendPlan[nb] {
			s.replicatedBytes += int64(len(units[idx]))
			h.stored += int64(len(units[idx]))
		}
	}
	s.mu.Unlock()
	if keepLocal {
		h.stored += sectionsBytes(h.sections)
	}

	dropAwaiting := func() {
		for _, t := range targets {
			delete(s.awaiting, replAckKey{owner: h.rank, version: h.version, from: t.rank})
		}
	}
	for _, t := range targets {
		for _, idx := range sendPlan[t.rank] {
			msg := encodeReplFrag(h.rank, h.version, t.inc, rec.codec, len(shards), idx, units[idx])
			if err := s.net.Send(transport.Message{From: h.rank, To: t.rank, Class: transport.Data, Payload: msg}); err != nil {
				s.mu.Lock()
				dropAwaiting()
				s.mu.Unlock()
				return fmt.Errorf("stable: replicate fragment: %w", err)
			}
		}
		// The marker travels after the fragments on the same FIFO pair, so a
		// stored marker implies the fragments preceding it were delivered.
		msg := encodeReplCommit(h.rank, h.version, t.inc, rec)
		if err := s.net.Send(transport.Message{From: h.rank, To: t.rank, Class: transport.Control, Payload: msg}); err != nil {
			s.mu.Lock()
			dropAwaiting()
			s.mu.Unlock()
			return fmt.Errorf("stable: replicate commit marker: %w", err)
		}
	}

	// Wait for each holder's acknowledgment; a holder that fails (its
	// incarnation advances) is excused — under dup the commit then relies
	// on the local copy plus the surviving replica. Only then does the
	// version become locally committed, so a failed Commit never leaves a
	// version visible to LastCommitted.
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		pending := 0
		for _, t := range targets {
			key := replAckKey{owner: h.rank, version: h.version, from: t.rank}
			if !s.awaiting[key] && s.nodes[t.rank].incarnation == t.inc && !s.closed {
				pending++
			}
		}
		if pending == 0 {
			break
		}
		s.cond.Wait()
	}
	dropAwaiting()
	if keepLocal {
		s.nodes[h.rank].local[h.version] = &memCkpt{sections: h.sections, commit: true}
		return nil
	}
	// Erasure-coded commits keep no local copy, so excusal has a floor: a
	// holder whose node failed (even after acking) lost its shards, and if
	// the survivors cannot supply k shards the line does not exist —
	// reporting success would let the protocol retire the previous,
	// recoverable line. A surviving cross-group parity shard lifts the
	// floor: it reconstructs the blob alone, so even a whole group of
	// failed holders is excused. (Store shutdown is exempt: the world is
	// going away.)
	if !s.closed {
		lost := 0
		parityOK := false
		for _, t := range targets {
			failed := s.nodes[t.rank].incarnation != t.inc
			for _, idx := range sendPlan[t.rank] {
				switch {
				case idx >= len(shards):
					parityOK = !failed
				case failed:
					lost++
				}
			}
		}
		if len(shards)-lost < s.codec.DataShards() && !parityOK {
			return fmt.Errorf("stable: commit (%d,%d) lost %d of %d shards to failed holders (codec needs %d)",
				h.rank, h.version, lost, len(shards), s.codec.DataShards())
		}
	}
	return nil
}

// --- Replication daemon ---

// daemon is node rank's replication endpoint: it stores incoming fragments
// and commit markers in the node's memory and acknowledges them, and
// routes acknowledgments back to waiting commits.
func (s *ReplicatedStore) daemon(rank int) {
	defer s.wg.Done()
	ep := s.net.Endpoint(rank)
	for {
		msg, err := ep.Recv()
		if err != nil {
			return // network shut down
		}
		data, ok := msg.Payload.(replPayload)
		if !ok || len(data) == 0 {
			continue
		}
		switch data[0] {
		case replMsgFrag:
			owner, version, inc, _, _, idx, frag, err := decodeReplFrag(data)
			if err != nil {
				continue
			}
			s.mu.Lock()
			if s.nodes[rank].incarnation == inc {
				s.nodes[rank].frags[replFragKey{owner: owner, version: version, idx: idx}] = frag
			}
			s.mu.Unlock()
		case replMsgCommit:
			owner, version, inc, rec, err := decodeReplCommit(data)
			if err != nil {
				continue
			}
			s.mu.Lock()
			live := s.nodes[rank].incarnation == inc
			if live {
				s.nodes[rank].commits[replCommitKey{owner: owner, version: version}] = rec
			}
			s.mu.Unlock()
			if live {
				ack := encodeReplAck(owner, version, rank)
				_ = s.net.Send(transport.Message{From: rank, To: owner, Class: transport.Control, Payload: ack})
			}
		case replMsgAck:
			owner, version, from, err := decodeReplAck(data)
			if err != nil {
				continue
			}
			s.mu.Lock()
			key := replAckKey{owner: owner, version: version, from: from}
			if _, waiting := s.awaiting[key]; waiting {
				s.awaiting[key] = true
				s.cond.Broadcast()
			}
			s.mu.Unlock()
		}
	}
}

// --- Read path ---

// LastCommitted implements Store: the newest version committed locally or,
// when the local memory was lost, the newest version whose fragments and
// commit marker survive on peers.
func (s *ReplicatedStore) LastCommitted(rank int) (int, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	best, ok := 0, false
	for v, ck := range s.nodes[rank].local {
		if ck.commit && (!ok || v > best) {
			best, ok = v, true
		}
	}
	for v, rec := range s.peerCommitted(rank) {
		if (!ok || v > best) && s.lineRecoverable(rank, v, rec) {
			best, ok = v, true
		}
	}
	return best, ok, nil
}

// lineRecoverable reports whether (owner, version) can be reassembled:
// enough distinct codec shards survive, or the cross-group parity shard
// does.
func (s *ReplicatedStore) lineRecoverable(owner, version int, rec replCommitRec) bool {
	if s.shardsAvailable(owner, version, rec) >= rec.need() {
		return true
	}
	if _, ok := rec.crossHolder(); ok {
		if _, found := s.findFrag(owner, version, rec.frags, rec); found {
			return true
		}
	}
	return false
}

// peerCommitted collects commit markers held on any node for the owner.
func (s *ReplicatedStore) peerCommitted(owner int) map[int]replCommitRec {
	out := make(map[int]replCommitRec)
	for _, node := range s.nodes {
		for key, rec := range node.commits {
			if key.owner == owner {
				out[key.version] = rec
			}
		}
	}
	return out
}

// shardsAvailable counts the distinct shard indexes of (owner, version)
// for which some node holds a digest-valid fragment, stopping as soon as
// reconstruction is possible.
func (s *ReplicatedStore) shardsAvailable(owner, version int, rec replCommitRec) int {
	n := 0
	for idx := 0; idx < rec.frags && n < rec.need(); idx++ {
		if _, ok := s.findFrag(owner, version, idx, rec); ok {
			n++
		}
	}
	return n
}

// Open implements Store. When the owner's local copy is gone (always, for
// the erasure codecs), the checkpoint is reassembled from peer shards —
// tolerating up to m missing or digest-mismatched ones — validated against
// the commit marker, and re-installed in the owner's memory (the restarted
// node re-hosting its line, as ReStore's re-distribution does).
func (s *ReplicatedStore) Open(rank, version int) (Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ck, ok := s.nodes[rank].local[version]; ok {
		if !ck.commit {
			return nil, fmt.Errorf("%w: rank %d version %d", ErrNotCommitted, rank, version)
		}
		return &memSnap{ck: ck}, nil
	}
	rec, ok := s.peerCommitted(rank)[version]
	if !ok {
		return nil, fmt.Errorf("%w: rank %d version %d (no local copy, no peer commit marker)", ErrNotFound, rank, version)
	}
	units := rec.frags
	if _, hasCross := rec.crossHolder(); hasCross {
		units++ // the cross-group parity shard at index rec.frags
	}
	shards := make([][]byte, units)
	for idx := range shards {
		if frag, ok := s.findFrag(rank, version, idx, rec); ok {
			shards[idx] = frag
		}
	}
	sections, err := reassembleSections(rec, shards)
	if err != nil {
		return nil, fmt.Errorf("%w: rank %d version %d: %v", ErrNotFound, rank, version, err)
	}
	ck := &memCkpt{sections: sections, commit: true}
	s.nodes[rank].local[version] = ck
	s.reassemblies++
	return &memSnap{ck: ck}, nil
}

// reassembleSections decodes a shard set against its commit marker
// (reassembleBlob) and copies the sections out of the blob.
func reassembleSections(rec replCommitRec, shards [][]byte) (map[string][]byte, error) {
	blob, _, err := reassembleBlob(rec, shards)
	if err != nil {
		return nil, err
	}
	return decodeReplSections(blob, false)
}

// reassembleBlob decodes a shard set against its commit marker: codec
// reconstruction and whole-blob digest validation. The slice may carry the
// cross-group parity shard at index rec.frags; a valid one is the blob
// itself and short-circuits the codec — the whole-group-loss path, where
// zero group-local shards survive. held then reports that the blob is that
// fragment, which some node may still hold, rather than a buffer the codec
// just built. Decode-around of up to m lost or corrupt group-local shards
// is unchanged when no parity shard was fetched.
func reassembleBlob(rec replCommitRec, shards [][]byte) (blob []byte, held bool, err error) {
	if len(shards) > rec.frags {
		if g := shards[rec.frags]; g != nil && rec.shardValid(rec.frags, g) {
			return g, true, nil
		}
		shards = shards[:rec.frags]
	}
	codec, err := rec.codecOf()
	if err != nil {
		return nil, false, err
	}
	blob, err = codec.Decode(shards, rec.total)
	if err != nil {
		return nil, false, err
	}
	if len(blob) != rec.total || replSum(blob) != rec.sum {
		return nil, false, fmt.Errorf("stable: reassembly digest mismatch (%d/%d bytes)", len(blob), rec.total)
	}
	return blob, false, nil
}

// findFrag locates a digest-valid copy of one shard; a corrupt copy on one
// node is skipped in favor of a valid copy elsewhere.
func (s *ReplicatedStore) findFrag(owner, version, idx int, rec replCommitRec) ([]byte, bool) {
	for _, node := range s.nodes {
		if frag, ok := node.frags[replFragKey{owner: owner, version: version, idx: idx}]; ok && rec.shardValid(idx, frag) {
			return frag, true
		}
	}
	return nil, false
}

// Retire implements Store: it prunes the rank's old local versions and the
// fragments and markers peers hold for them.
func (s *ReplicatedStore) Retire(rank, version int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for v := range s.nodes[rank].local {
		if v < version {
			delete(s.nodes[rank].local, v)
		}
	}
	for _, node := range s.nodes {
		for key := range node.frags {
			if key.owner == rank && key.version < version {
				delete(node.frags, key)
			}
		}
		for key := range node.commits {
			if key.owner == rank && key.version < version {
				delete(node.commits, key)
			}
		}
	}
	return nil
}

// Truncate implements Store: it drops the rank's versions above the
// recovery line everywhere — local memory, peer fragments, and peer commit
// markers — so a dead generation's lines cannot resurface.
func (s *ReplicatedStore) Truncate(rank, version int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for v := range s.nodes[rank].local {
		if v > version {
			delete(s.nodes[rank].local, v)
		}
	}
	for _, node := range s.nodes {
		for key := range node.frags {
			if key.owner == rank && key.version > version {
				delete(node.frags, key)
			}
		}
		for key := range node.commits {
			if key.owner == rank && key.version > version {
				delete(node.commits, key)
			}
		}
	}
	return nil
}

// --- Blob and message codecs ---

// encodeReplSections flattens a section map into one replication blob.
func encodeReplSections(sections map[string][]byte) []byte {
	names := make([]string, 0, len(sections))
	size := 0
	for n, d := range sections {
		names = append(names, n)
		size += len(n) + len(d) + 16
	}
	sort.Strings(names)
	w := wire.NewWriter(16 + size)
	w.U32(uint32(len(names)))
	for _, n := range names {
		w.String(n)
		w.Bytes32(sections[n])
	}
	return w.Bytes()
}

// decodeReplSections parses a replication blob into its sections. With
// view they are sub-slices of blob (capacity clipped): for a blob nothing
// else holds, such as one the codec just built or a commit's own. Without
// it they are copies, for a blob that may be a fragment some node holds.
func decodeReplSections(blob []byte, view bool) (map[string][]byte, error) {
	r := wire.NewReader(blob)
	n := r.Count(8) // minimum bytes per serialized section
	sections := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		name := r.String()
		data := r.View32()
		if r.Err() != nil {
			break
		}
		if !view {
			data = bytes.Clone(data)
		}
		sections[name] = data
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("corrupt replication blob: %w", err)
	}
	return sections, nil
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

// replSum is the one digest of the storage plane: CRC-32C (Castagnoli),
// which the standard library computes with the CPU's CRC instructions at
// memory speed. It guards against corruption — a flipped bit, a torn or
// misplaced shard — not against an adversary. It is carried as a u64 so
// markers and frames keep their layout.
func replSum(b []byte) uint64 { return uint64(crc32.Checksum(b, castagnoli)) }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// The fragment header names the codec and shard geometry so a holder can
// attribute a shard without its marker; the marker remains the
// authoritative record reassembly validates against.
//
// The payload is the fragment's own copy — what a holder stores never pins
// the owner's blob. The Writer is sized for the header alone on purpose:
// appending the fragment then allocates the payload at its final size
// without zeroing bytes the append is about to overwrite, which a Writer
// pre-sized for the whole payload would do first.
func encodeReplFrag(owner, version int, inc uint64, codecID uint8, shards, idx int, frag []byte) replPayload {
	w := wire.NewWriter(replFragHeader)
	w.U8(replMsgFrag)
	w.Int(owner)
	w.Int(version)
	w.U64(inc)
	w.U8(codecID)
	w.Int(shards)
	w.Int(idx)
	w.Bytes32(frag)
	return replPayload(w.Bytes())
}

// replFragHeader is the encoded size of a fragment payload's fixed fields.
const replFragHeader = 1 + 8 + 8 + 8 + 1 + 8 + 8 + 4

func decodeReplFrag(data replPayload) (owner, version int, inc uint64, codecID uint8, shards, idx int, frag []byte, err error) {
	r := wire.NewReader(data[1:])
	owner, version = r.Int(), r.Int()
	inc = r.U64()
	codecID = r.U8()
	shards = r.Int()
	idx = r.Int()
	frag = r.View32() // aliases data: one fragment per payload, so it pins only itself
	return owner, version, inc, codecID, shards, idx, frag, r.Err()
}

// writeReplRec and readReplRec (de)serialize a commit marker's record; the
// same layout is embedded in the distributed store's query responses.
func writeReplRec(w *wire.Writer, rec replCommitRec) {
	w.U8(rec.codec)
	w.Int(rec.frags)
	w.Int(rec.data)
	w.Int(rec.total)
	w.U64(rec.sum)
	w.U64s(rec.sums)
	w.Int(rec.cross)
}

func readReplRec(r *wire.Reader) replCommitRec {
	return replCommitRec{
		codec: r.U8(),
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
const replRecWireMin = 1 + 8 + 8 + 8 + 8 + 4 + 8

func encodeReplCommit(owner, version int, inc uint64, rec replCommitRec) replPayload {
	w := wire.NewWriter(64 + 8*len(rec.sums))
	w.U8(replMsgCommit)
	w.Int(owner)
	w.Int(version)
	w.U64(inc)
	writeReplRec(w, rec)
	return replPayload(w.Bytes())
}

func decodeReplCommit(data replPayload) (owner, version int, inc uint64, rec replCommitRec, err error) {
	r := wire.NewReader(data[1:])
	owner, version = r.Int(), r.Int()
	inc = r.U64()
	rec = readReplRec(r)
	if err := r.Err(); err != nil {
		return owner, version, inc, rec, err
	}
	if !rec.sane() {
		return owner, version, inc, rec, fmt.Errorf("stable: insane commit marker geometry (frags=%d data=%d total=%d)", rec.frags, rec.data, rec.total)
	}
	return owner, version, inc, rec, nil
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
