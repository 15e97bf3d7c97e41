package stable

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"time"

	"c3/internal/member"
	"c3/internal/trace"
	"c3/internal/transport"
	"c3/internal/wire"
)

// DistStore is the diskless, ReStore-style replication engine: one
// instance per rank, holding exactly one node's memory (its own
// checkpoints plus the fragments and commit markers it replicates for its
// ring predecessors). Instances communicate over a transport.Interconnect —
// a tcp.Mesh with one OS process per rank, or the in-memory Network an
// in-process world (ReplicatedStore) shares among its n instances.
//
// The write path ships the blob's shards to their ring holders followed by
// a commit marker on the same FIFO pair, and the commit blocks until every
// holder acknowledged (or a timeout excuses a dead one). The read path is a
// query protocol: a restarted rank with empty memory asks its peers which
// committed versions they hold for it and fetches the fragments, so a rank
// that was SIGKILLed reassembles its last committed line over the wire.
//
// Failure model: a process that dies takes its node memory with it — real
// death *is* the wipe. In-process worlds model it with ReplicatedStore's
// FailNode. A committed line is lost only if more of its holders die than
// the codec tolerates.
type DistStore struct {
	self      int
	n         int
	fragments int
	codec     Codec
	groupSize int // checkpoint group size g; 0 = flat world
	net       transport.Interconnect

	ackTimeout   time.Duration
	queryTimeout time.Duration
	queryRetries int
	commitHook   func(version int)
	logf         func(format string, args ...any)

	mu       sync.Mutex
	cond     *sync.Cond
	members  member.Set
	node     *replNode
	awaiting map[replAckKey]ackState
	epoch    uint64 // recovery epoch; advancing it releases blocked commits
	fenced   bool   // minority side of a partition: commits refuse, not excuse
	closed   bool
	// lines is the merged peer answer of the last LastCommitted query for
	// this rank, which the following Open reuses (nil: none kept).
	lines map[int]*remoteLine
	// wipes counts FailNode wipes of this node's memory; wiping holds the
	// holders whose memory a FailNode is wiping right now.
	wipes  uint64
	wiping map[int]bool

	bytesWritten    int64
	replicatedBytes int64
	reassemblies    int64
	commits         int64
	commitNanos     int64

	reqMu   sync.Mutex
	nextReq uint64
	waiters map[uint64]chan distResp

	wg   sync.WaitGroup
	done chan struct{} // closed when the daemon exits
}

// ackState is where one holder's acknowledgment of one commit stands.
type ackState uint8

const (
	ackPending ackState = iota
	ackDone
	// ackLost: the holder's memory was wiped while the commit was in
	// flight. Its shards count lost even if it acknowledged them.
	ackLost
)

// DistOption configures a DistStore.
type DistOption func(*DistStore)

// WithDistFragments sets how many pieces each checkpoint blob is split
// into before replication under the default dup codec (default 2).
func WithDistFragments(k int) DistOption {
	return func(s *DistStore) {
		if k >= 1 {
			s.fragments = k
		}
	}
}

// WithDistCodec replaces the default full-replication (dup) scheme with an
// erasure codec: each of the k+m shards lands on its own ring successor
// (parity placement rotated per owner) and the owner keeps no full local
// copy; any k shards reconstruct the line over the wire.
func WithDistCodec(codec Codec) DistOption {
	return func(s *DistStore) { s.codec = codec }
}

// WithDistGroupSize partitions the world into checkpoint groups of g
// consecutive ring slots (member.Topology): shards land on group-local
// successors and every line additionally ships one cross-group parity
// shard (the whole blob) to the next group, surviving whole-group loss.
// g <= 1 keeps the flat world.
func WithDistGroupSize(g int) DistOption {
	return func(s *DistStore) {
		if g > 1 {
			s.groupSize = g
		}
	}
}

// WithAckTimeout bounds how long a commit waits for a neighbor's
// acknowledgment before excusing it as dead (default 5s). The local copy
// still commits; the line then relies on the surviving replicas.
func WithAckTimeout(d time.Duration) DistOption {
	return func(s *DistStore) { s.ackTimeout = d }
}

// WithQueryTimeout bounds how long recovery reads wait for peer responses
// (default 3s).
func WithQueryTimeout(d time.Duration) DistOption {
	return func(s *DistStore) { s.queryTimeout = d }
}

// WithQueryRetries sets how many rounds of per-peer fragment queries a
// recovery read makes before giving a fragment up as unreachable (default
// 1). The self-healing runtime raises it so a reassembly started while a
// peer is still re-dialing the restarted rank's mesh does not fail
// spuriously.
func WithQueryRetries(k int) DistOption {
	return func(s *DistStore) {
		if k >= 1 {
			s.queryRetries = k
		}
	}
}

// WithCommitHook installs a callback invoked after each locally committed
// version. The acknowledgment wait that precedes the local commit may
// have ended early — epoch advance, shutdown, ack timeout excusing a
// dead neighbor — so the hook reports local durability, not replication
// completion. The multi-process node uses it to report checkpoint
// progress to the launcher, which drives the external-kill demo mode.
func WithCommitHook(fn func(version int)) DistOption {
	return func(s *DistStore) { s.commitHook = fn }
}

// WithDistMembers installs the initial membership placement and recovery
// queries run against (default: all n slots). A store whose world has
// spare address slots must receive the real membership, or recovery
// sweeps would pay dial timeouts toward empty slots.
func WithDistMembers(m member.Set) DistOption {
	return func(s *DistStore) {
		if m.Size() > 0 {
			s.members = m
		}
	}
}

// WithDistLog installs a diagnostic logger for replication and recovery
// events.
func WithDistLog(logf func(format string, args ...any)) DistOption {
	return func(s *DistStore) { s.logf = logf }
}

// NewDistStore creates the store for local rank self of a world with n
// address slots, attached to the given replication interconnect. The
// membership defaults to all n slots; elastic worlds install the live
// membership with WithDistMembers / SetMembership. The store owns one
// replication daemon; call Close when done.
func NewDistStore(self, n int, net transport.Interconnect, opts ...DistOption) *DistStore {
	if n <= 0 || self < 0 || self >= n {
		panic(fmt.Sprintf("stable: dist store rank %d of %d", self, n))
	}
	s := &DistStore{
		self:         self,
		n:            n,
		members:      member.Launch(n),
		fragments:    2,
		net:          net,
		ackTimeout:   5 * time.Second,
		queryTimeout: 3 * time.Second,
		queryRetries: 1,
		node:         newReplNode(),
		awaiting:     make(map[replAckKey]ackState),
		wiping:       make(map[int]bool),
		waiters:      make(map[uint64]chan distResp),
		done:         make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	for _, o := range opts {
		o(s)
	}
	if s.codec == nil {
		s.codec = dupCodec{k: s.fragments}
	}
	if s.codec.ParityShards() > 0 && n < 2 {
		panic("stable: erasure codecs need at least one peer rank")
	}
	s.wg.Add(1)
	go s.daemon()
	return s
}

// Close shuts the store and its interconnect down.
func (s *DistStore) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.net.Shutdown()
	s.wg.Wait()
}

// AdvanceEpoch moves the store to a new recovery epoch. A checkpoint begun
// under an older epoch no longer waits for neighbor acknowledgments — a
// commit already waiting is released, and one that commits later does not
// wait (either keeps its local copy); checkpoints begun under the new epoch
// wait normally. The multi-process node calls it whenever an attempt ends —
// on the failure detector's agreed epoch, or on the launcher's abort — so
// a committer waiting on a dead holder cannot stall the restart.
func (s *DistStore) AdvanceEpoch(epoch uint64) {
	s.mu.Lock()
	if epoch > s.epoch {
		s.epoch = epoch
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// Epoch returns the store's current recovery epoch.
func (s *DistStore) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// SetFenced flips the store's fencing state. The failure detector drives
// it: fenced=true when this rank can no longer see a strict majority of
// the launch world. While fenced, Commit refuses (ErrFenced) instead of
// excusing unreachable neighbors — a minority-side rank must not extend
// its recovery line while a majority may be committing epochs without it.
// Unfencing releases any commit blocked mid-wait back onto the normal ack
// path with a fresh ack window.
func (s *DistStore) SetFenced(fenced bool) {
	s.mu.Lock()
	if s.fenced != fenced {
		s.fenced = fenced
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// Fenced reports the current fencing state.
func (s *DistStore) Fenced() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fenced
}

// SetMembership installs the member ring new commits place against and
// recovery queries sweep. The store re-partitions lazily: existing lines
// stay where the old ring put them and recovery decodes around holders
// that left (the codec tolerates ≤m unreachable shards), while every line
// committed after the change lands on the new ring. The next committed
// recovery line therefore completes the re-partition, which is exactly
// when the elastic runtime changes membership.
func (s *DistStore) SetMembership(m member.Set) {
	if m.Size() == 0 {
		return
	}
	s.mu.Lock()
	s.members = m
	s.lines = nil
	s.mu.Unlock()
}

// Members returns the membership placement and queries currently use.
func (s *DistStore) Members() member.Set {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.members
}

// Topology returns the checkpoint-group topology placement runs against.
// Like the membership it derives from, it re-partitions lazily: lines
// committed before a change stay where the old topology put them.
func (s *DistStore) Topology() member.Topology {
	s.mu.Lock()
	defer s.mu.Unlock()
	return member.NewTopology(s.members, s.groupSize)
}

// peerList snapshots the current members excluding self — the sweep set
// for queries, fetches, and prunes. A joining rank that is not yet a
// member still sweeps the full member ring it is joining.
func (s *DistStore) peerList() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	peers := make([]int, 0, s.members.Size())
	for _, q := range s.members.Members() {
		if q != s.self {
			peers = append(peers, q)
		}
	}
	return peers
}

// Reassemblies reports how many checkpoints were rebuilt from peer
// fragments over the wire.
func (s *DistStore) Reassemblies() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reassemblies
}

// CommitStats reports the locally committed line count and the total
// wall-clock time spent inside Commit (replication + acknowledgment
// wait). The ratio is the mean commit latency the ops plane exports.
func (s *DistStore) CommitStats() (count int64, nanos int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commits, s.commitNanos
}

// BytesWritten returns the section bytes written to this store.
func (s *DistStore) BytesWritten() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytesWritten
}

// ReplicatedBytes returns the fragment bytes shipped to peer nodes.
func (s *DistStore) ReplicatedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replicatedBytes
}

// StoredBytes returns the checkpoint bytes resident in THIS process's
// memory: its own full copies plus the replica shards it holds for peers.
// Summed across processes it is the world's stable-storage footprint.
func (s *DistStore) StoredBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t int64
	for _, ck := range s.node.local {
		for _, d := range ck.sections {
			t += int64(len(d))
		}
	}
	for _, f := range s.node.frags {
		t += int64(len(f))
	}
	return t
}

func (s *DistStore) send(to int, class transport.Class, p replPayload) {
	_ = s.net.Send(transport.Message{From: s.self, To: to, Class: class, Payload: p})
}

// --- Write path ---

type distHandle struct {
	store   *DistStore
	rank    int
	version int
	epoch   uint64 // the store's recovery epoch when the checkpoint began
	// blob is the replication blob, built as the sections arrive: a section
	// count that Commit fills in, then (name, length, bytes) per section in
	// the order written. Appending a section here is the one copy the store
	// makes of the caller's bytes.
	blob     wire.Writer
	sections []blobSection // in blob order
	done     bool
	stored   int64
}

// blobSection locates one section's bytes in the handle's blob.
type blobSection struct {
	name  string
	at, n int // blob[at : at+n]
}

// StoredSize reports the stable-storage bytes this commit occupies across
// the world (local copy plus replica shards).
func (h *distHandle) StoredSize() int64 { return h.stored }

// Begin implements Store.
func (s *DistStore) Begin(rank, version int) (Checkpoint, error) {
	if rank != s.self {
		return nil, fmt.Errorf("stable: dist store hosts rank %d, cannot write rank %d", s.self, rank)
	}
	s.mu.Lock()
	delete(s.node.local, version)
	s.lines = nil
	h := &distHandle{store: s, rank: rank, version: version, epoch: s.epoch}
	s.mu.Unlock()
	h.blob.U32(0) // the section count, filled in by Commit
	return h, nil
}

func (h *distHandle) WriteSection(name string, data []byte) error {
	if h.done {
		return fmt.Errorf("stable: write to finished checkpoint (%d,%d)", h.rank, h.version)
	}
	if i := slices.IndexFunc(h.sections, func(sec blobSection) bool { return sec.name == name }); i >= 0 {
		h.dropSection(i)
	}
	h.appendSection(name, data)
	h.store.mu.Lock()
	h.store.bytesWritten += int64(len(data))
	h.store.mu.Unlock()
	return nil
}

func (h *distHandle) appendSection(name string, data []byte) {
	h.blob.String(name)
	h.blob.Bytes32(data)
	h.sections = append(h.sections, blobSection{name: name, at: h.blob.Len() - len(data), n: len(data)})
}

// dropSection rebuilds the blob without section i, so a section written
// twice is stored once, with its second content.
func (h *distHandle) dropSection(i int) {
	old, kept := h.blob.Bytes(), slices.Delete(h.sections, i, i+1)
	h.blob, h.sections = wire.Writer{}, nil
	h.blob.U32(0)
	for _, sec := range kept {
		h.appendSection(sec.name, old[sec.at:sec.at+sec.n])
	}
}

// views returns the sections as sub-slices of blob, capacity clipped.
func (h *distHandle) views(blob []byte) map[string][]byte {
	out := make(map[string][]byte, len(h.sections))
	for _, sec := range h.sections {
		out[sec.name] = blob[sec.at : sec.at+sec.n : sec.at+sec.n]
	}
	return out
}

// rawBytes is the sections' total size.
func (h *distHandle) rawBytes() (n int64) {
	for _, sec := range h.sections {
		n += int64(sec.n)
	}
	return n
}

func (h *distHandle) Abort() error {
	h.done = true
	return nil
}

// Commit encodes the checkpoint through the store's codec, ships the
// shards and commit marker to their holders, and waits for their
// acknowledgments; a holder that never answers within the ack timeout (it
// is dead, or the world is being torn down) or whose memory FailNode wipes
// is excused. Only then does the version become locally committed.
func (h *distHandle) Commit() error {
	if h.done {
		return fmt.Errorf("stable: commit of finished checkpoint (%d,%d)", h.rank, h.version)
	}
	h.done = true
	s := h.store
	begin := time.Now()

	s.mu.Lock()
	if s.fenced {
		s.mu.Unlock()
		return fmt.Errorf("stable: commit (%d,%d): %w", h.rank, h.version, ErrFenced)
	}
	s.mu.Unlock()

	// The encode span covers everything that reads the checkpoint bytes
	// before they ship — shard, parity, digests — so that encode, ship and
	// ack tile the whole commit. WriteSection already flattened the blob.
	encSp := trace.Default().Begin(int32(s.self), trace.KindEncode, 0, uint64(h.version))
	h.blob.PatchU32(0, uint32(len(h.sections)))
	blob := h.blob.Bytes()
	shards, err := s.codec.Encode(blob)
	if err != nil {
		encSp.End(0)
		return fmt.Errorf("stable: encode checkpoint (%d,%d): %w", h.rank, h.version, err)
	}
	sum, sums := replSum(blob), shardSums(shards)
	encSp.End(uint64(len(blob)))
	s.mu.Lock()
	sendPlan, targets, keepLocal, parity := commitPlan(s.codec, h.rank, len(shards), member.NewTopology(s.members, s.groupSize))
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
		sum:   sum,
		sums:  sums,
		cross: parity + 1,
	}
	startEpoch, startWipes := h.epoch, s.wipes
	for _, nb := range targets {
		st := ackPending
		if s.wiping[nb] {
			st = ackLost // what lands there now may land before the wipe
		}
		s.awaiting[replAckKey{owner: h.rank, version: h.version, from: nb}] = st
		for _, idx := range sendPlan[nb] {
			s.replicatedBytes += int64(len(units[idx]))
			h.stored += int64(len(units[idx]))
		}
	}
	s.mu.Unlock()
	if keepLocal {
		h.stored += h.rawBytes()
	}

	shipSp := trace.Default().Begin(int32(s.self), trace.KindShip, 0, uint64(h.version))
	var shippedBytes uint64
	for _, nb := range targets {
		for _, idx := range sendPlan[nb] {
			s.send(nb, transport.Data, encodeReplFrag(h.rank, h.version, 0, rec.codec, len(shards), idx, units[idx]))
			shippedBytes += uint64(len(units[idx]))
		}
		// The marker travels after the fragments on the same FIFO pair, so
		// a stored marker implies the fragments preceding it arrived.
		s.send(nb, transport.Control, encodeReplCommit(h.rank, h.version, 0, rec))
	}
	shipSp.End(shippedBytes)

	ackSp := trace.Default().Begin(int32(s.self), trace.KindAck, 0, uint64(h.version))
	deadline := time.Now().Add(s.ackTimeout)
	wake := time.AfterFunc(s.ackTimeout, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer wake.Stop()

	s.mu.Lock()
	lostShards := 0
	parityLost := false
	wasFenced := false
	for {
		pending := 0
		lostShards = 0
		parityLost = false
		for _, nb := range targets {
			if st := s.awaiting[replAckKey{owner: h.rank, version: h.version, from: nb}]; st != ackDone {
				if st == ackPending {
					pending++
				}
				for _, idx := range sendPlan[nb] {
					if idx >= len(shards) {
						parityLost = true
					} else {
						lostShards++
					}
				}
			}
		}
		if s.closed || s.epoch != startEpoch {
			break
		}
		if s.fenced {
			// Fenced mid-wait: the deadline must NOT excuse the silent
			// holders — they are on the other side of a partition, and
			// excusing them would commit a minority-side line. Block until
			// the fence lifts (heal) or the attempt is torn down.
			wasFenced = true
			s.cond.Wait()
			continue
		}
		if wasFenced {
			// The fence lifted: the holders are reachable again but their
			// acks are still in flight — grant a fresh ack window instead of
			// excusing them on the long-expired original deadline.
			wasFenced = false
			deadline = time.Now().Add(s.ackTimeout)
			wake.Reset(s.ackTimeout)
		}
		if pending == 0 || !time.Now().Before(deadline) {
			break
		}
		s.cond.Wait()
	}
	fenced := s.fenced
	tornDown := s.closed || s.epoch != startEpoch
	for _, nb := range targets {
		delete(s.awaiting, replAckKey{owner: h.rank, version: h.version, from: nb})
	}
	if keepLocal && !fenced && s.wipes == startWipes {
		// The local copy is the blob itself: its sections are views of it.
		// A node wiped mid-commit keeps none: the line lives on its holders.
		s.node.local[h.version] = &memCkpt{sections: h.views(blob), commit: true}
	}
	hook := s.commitHook
	s.mu.Unlock()
	ackSp.End(uint64(lostShards))
	if fenced {
		// Torn down while still fenced: refuse outright. No local copy was
		// installed and no hook fires — a fenced rank reports zero commits.
		return fmt.Errorf("stable: commit (%d,%d) torn down while fenced: %w", h.rank, h.version, ErrFenced)
	}
	// Erasure-coded commits keep no local copy, so the ack-timeout excusal
	// has a floor: if the unacknowledged or wiped holders account for more
	// shards than the parity budget, the line cannot be reconstructed and
	// success would let the protocol retire the previous, recoverable line. An
	// acknowledged cross-group parity shard lifts the floor: it alone
	// reconstructs the blob, so a correlated *group-dead* loss — every
	// group-local holder silent at once, far beyond the ≤m individual
	// losses the ring excusal was built for — is excused the same way a
	// single dead neighbor is. The teardown exits (epoch advance,
	// shutdown) keep their legacy semantics — recovery truncates and
	// re-executes those lines.
	parityAcked := parity >= 0 && !parityLost
	if !keepLocal && !tornDown && len(shards)-lostShards < s.codec.DataShards() && !parityAcked {
		return fmt.Errorf("stable: commit (%d,%d) missing acknowledgments for %d of %d shards (codec needs %d)",
			h.rank, h.version, lostShards, len(shards), s.codec.DataShards())
	}
	s.mu.Lock()
	s.commits++
	s.commitNanos += time.Since(begin).Nanoseconds()
	s.mu.Unlock()
	if hook != nil {
		hook(h.version)
	}
	return nil
}

// --- Daemon ---

// daemon is the node's replication endpoint: it stores incoming fragments
// and markers, acknowledges commits, answers recovery queries, applies
// prunes, and routes acknowledgments and query responses to waiters.
func (s *DistStore) daemon() {
	defer s.wg.Done()
	defer close(s.done)
	ep := s.net.Endpoint(s.self)
	for {
		msg, err := ep.Recv()
		if err != nil {
			return // interconnect shut down
		}
		if w, ok := msg.Payload.(wipeMarker); ok {
			s.mu.Lock()
			s.node = newReplNode()
			s.lines = nil
			s.wipes++
			s.mu.Unlock()
			close(w)
			continue
		}
		data, ok := msg.Payload.(replPayload)
		if !ok || len(data) == 0 {
			continue
		}
		switch data[0] {
		case replMsgFrag:
			owner, version, _, _, _, idx, frag, err := decodeReplFrag(data)
			if err != nil {
				continue
			}
			s.mu.Lock()
			s.node.frags[replFragKey{owner: owner, version: version, idx: idx}] = frag
			s.mu.Unlock()
		case replMsgCommit:
			owner, version, _, rec, err := decodeReplCommit(data)
			if err != nil {
				continue
			}
			s.mu.Lock()
			s.node.commits[replCommitKey{owner: owner, version: version}] = rec
			s.mu.Unlock()
			s.send(msg.From, transport.Control, encodeReplAck(owner, version, s.self))
		case replMsgAck:
			owner, version, from, err := decodeReplAck(data)
			if err != nil {
				continue
			}
			s.mu.Lock()
			key := replAckKey{owner: owner, version: version, from: from}
			if st, waiting := s.awaiting[key]; waiting && st == ackPending {
				s.awaiting[key] = ackDone
				s.cond.Broadcast()
			}
			s.mu.Unlock()
		case distMsgQueryLast:
			reqID, owner, err := decodeDistQueryLast(data)
			if err != nil {
				continue
			}
			if s.logf != nil {
				s.logf("dist: rank %d answering query owner=%d from rank %d", s.self, owner, msg.From)
			}
			s.send(msg.From, transport.Control, s.answerQueryLast(reqID, owner))
		case distMsgQueryFrag:
			reqID, owner, version, idx, err := decodeDistQueryFrag(data)
			if err != nil {
				continue
			}
			s.mu.Lock()
			frag, found := s.node.frags[replFragKey{owner: owner, version: version, idx: idx}]
			s.mu.Unlock()
			s.send(msg.From, transport.Control, encodeDistRespFrag(reqID, found, frag))
		case distMsgRespLast, distMsgRespFrag:
			reqID, ok := peekDistReqID(data)
			if !ok {
				continue
			}
			s.reqMu.Lock()
			ch := s.waiters[reqID]
			s.reqMu.Unlock()
			if ch != nil {
				select {
				case ch <- distResp{from: msg.From, data: data}:
				default: // waiter gave up or buffer full; drop
				}
			}
		case distMsgPrune:
			owner, version, above, err := decodeDistPrune(data)
			if err != nil {
				continue
			}
			s.mu.Lock()
			for key := range s.node.frags {
				if key.owner == owner && ((above && key.version > version) || (!above && key.version < version)) {
					delete(s.node.frags, key)
				}
			}
			for key := range s.node.commits {
				if key.owner == owner && ((above && key.version > version) || (!above && key.version < version)) {
					delete(s.node.commits, key)
				}
			}
			s.mu.Unlock()
		}
	}
}

// --- In-process fail-stop (ReplicatedStore.FailNode) ---

// wipeMarker is the in-band cut FailNode queues behind everything already
// queued to the failed node: the daemon stores what precedes it, then
// drops the node's whole memory and closes the channel.
type wipeMarker chan struct{}

// wipe loses this node's memory, including the replication traffic queued
// to it at the call, and returns once the daemon has made that cut. The
// node's own commit in flight installs no local copy.
func (s *DistStore) wipe() {
	w := make(wipeMarker)
	if s.net.Send(transport.Message{From: s.self, To: s.self, Class: transport.Control, Payload: w}) != nil {
		return // the interconnect is down, and the memory with it
	}
	select {
	case <-w:
	case <-s.done:
	}
}

// holderWiping tells this node that peer r's memory is being wiped
// (wiping) or has been (!wiping). Meanwhile r is a holder that lost its
// shards: commits stop waiting for its acknowledgment and count its shards
// lost even if it acknowledged them.
func (s *DistStore) holderWiping(r int, wiping bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !wiping {
		delete(s.wiping, r)
		return
	}
	s.wiping[r] = true
	for key := range s.awaiting {
		if key.from == r {
			s.awaiting[key] = ackLost
		}
	}
	s.cond.Broadcast()
}

// answerQueryLast reports every (version, marker, held fragment indexes)
// this node holds for the owner.
func (s *DistStore) answerQueryLast(reqID uint64, owner int) replPayload {
	s.mu.Lock()
	defer s.mu.Unlock()
	var entries []distLastEntry
	for key, rec := range s.node.commits {
		if key.owner != owner {
			continue
		}
		e := distLastEntry{version: key.version, rec: rec}
		units := rec.frags
		if _, ok := rec.crossHolder(); ok {
			units++ // the cross-group parity shard at index rec.frags
		}
		for idx := 0; idx < units; idx++ {
			if _, ok := s.node.frags[replFragKey{owner: owner, version: key.version, idx: idx}]; ok {
				e.held = append(e.held, idx)
			}
		}
		entries = append(entries, e)
	}
	return encodeDistRespLast(reqID, entries)
}

// --- Read path (recovery queries) ---

// distLastEntry is one peer's report about (owner, version).
type distLastEntry struct {
	version int
	rec     replCommitRec
	held    []int // fragment indexes the peer holds
}

// remoteLine aggregates peer reports for one version.
type remoteLine struct {
	rec     replCommitRec
	holders map[int][]int // fragment idx -> peers holding it
}

// distResp is a query response as the daemon routes it to its waiter,
// with the peer that sent it.
type distResp struct {
	from int
	data replPayload
}

// newRequest registers ch as the waiter for a fresh request id. Several
// requests may share one channel.
func (s *DistStore) newRequest(ch chan distResp) uint64 {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	s.nextReq++
	s.waiters[s.nextReq] = ch
	return s.nextReq
}

func (s *DistStore) dropRequest(id uint64) {
	s.reqMu.Lock()
	delete(s.waiters, id)
	s.reqMu.Unlock()
}

// queryPeers asks every peer what it holds for owner and merges the
// responses, waiting until all peers answered or the query timeout passed.
func (s *DistStore) queryPeers(owner int) map[int]*remoteLine {
	ch := make(chan distResp, s.n)
	reqID := s.newRequest(ch)
	defer s.dropRequest(reqID)
	sweep := s.peerList()
	for _, q := range sweep {
		s.send(q, transport.Control, encodeDistQueryLast(reqID, owner))
	}
	peers := len(sweep)
	lines := make(map[int]*remoteLine)
	deadline := time.After(s.queryTimeout)
	for answered := 0; answered < peers; {
		select {
		case resp := <-ch:
			if len(resp.data) == 0 || resp.data[0] != distMsgRespLast {
				continue
			}
			_, entries, err := decodeDistRespLast(resp.data)
			if err != nil {
				continue
			}
			if s.logf != nil {
				s.logf("dist: rank %d query owner=%d: rank %d holds %d entries", s.self, owner, resp.from, len(entries))
			}
			for _, e := range entries {
				rl := lines[e.version]
				if rl == nil {
					rl = &remoteLine{rec: e.rec, holders: make(map[int][]int)}
					lines[e.version] = rl
				}
				for _, idx := range e.held {
					rl.holders[idx] = append(rl.holders[idx], resp.from)
				}
			}
			answered++
		case <-deadline:
			if s.logf != nil {
				s.logf("dist: rank %d query owner=%d timed out with %d/%d peers answered", s.self, owner, answered, peers)
			}
			return lines
		}
	}
	return lines
}

// complete reports whether enough distinct shards of the line were seen
// somewhere to reconstruct it (all for dup, any k for the erasure codecs,
// or the cross-group parity shard alone — the whole-group-loss path).
func (rl *remoteLine) complete() bool {
	if _, ok := rl.rec.crossHolder(); ok && len(rl.holders[rl.rec.frags]) > 0 {
		return true
	}
	need := rl.rec.need()
	avail := 0
	for idx := 0; idx < rl.rec.frags && avail < need; idx++ {
		if len(rl.holders[idx]) > 0 {
			avail++
		}
	}
	return avail >= need
}

// LastCommitted implements Store: the newest version this node holds a
// committed local copy of or, when that need not be the newest (the
// erasure codecs keep no local copy; a restarted process has none), the
// newest version whose marker and enough shards survive on peers. The
// merged peer answer for this rank is kept for the Open that follows, so a
// restore queries the peers once.
func (s *DistStore) LastCommitted(rank int) (int, bool, error) {
	best, ok := 0, false
	if rank == s.self {
		s.mu.Lock()
		for v, ck := range s.node.local {
			if ck.commit && (!ok || v > best) {
				best, ok = v, true
			}
		}
		s.mu.Unlock()
		if ok && s.codec.ParityShards() == 0 {
			return best, true, nil // dup: every line committed here has a local copy
		}
	}
	lines := s.queryPeers(rank)
	for v, rl := range lines {
		if (!ok || v > best) && rl.complete() {
			best, ok = v, true
		}
	}
	if rank == s.self {
		s.mu.Lock()
		s.lines = lines
		s.mu.Unlock()
	}
	return best, ok, nil
}

// Open implements Store. A missing local copy is reassembled from peer
// fragments fetched over the wire, validated against the commit marker,
// and re-installed locally (the restarted node re-hosting its line). The
// holders come from the answer LastCommitted kept when it has the version;
// they are hints only, since every fetched shard is validated and missing
// ones are swept for.
func (s *DistStore) Open(rank, version int) (Snapshot, error) {
	var rl *remoteLine
	s.mu.Lock()
	if rank == s.self {
		if ck, ok := s.node.local[version]; ok {
			s.mu.Unlock()
			if !ck.commit {
				return nil, fmt.Errorf("%w: rank %d version %d", ErrNotCommitted, rank, version)
			}
			return &memSnap{ck: ck}, nil
		}
		rl = s.lines[version]
	}
	s.mu.Unlock()

	reSp := trace.Default().Begin(int32(s.self), trace.KindReassemble, 0, uint64(version))
	if rl == nil {
		rl = s.queryPeers(rank)[version]
	}
	if rl == nil {
		reSp.End(0)
		return nil, fmt.Errorf("%w: rank %d version %d (no local copy, no peer commit marker)", ErrNotFound, rank, version)
	}
	shards := s.fetchShards(rank, version, rl)
	blob, held, err := reassembleBlob(rl.rec, shards)
	var sections map[string][]byte
	if err == nil {
		// A blob the codec just built belongs to this restore, so the
		// sections are views of it; the cross-group parity shard is a
		// fetched fragment, so its sections are copies.
		sections, err = decodeReplSections(blob, !held)
	}
	if err != nil {
		reSp.End(0)
		return nil, fmt.Errorf("%w: rank %d version %d: %v", ErrNotFound, rank, version, err)
	}
	reSp.End(uint64(rl.rec.total))
	ck := &memCkpt{sections: sections, commit: true}
	s.mu.Lock()
	if rank == s.self {
		s.node.local[version] = ck
	}
	s.reassemblies++
	s.mu.Unlock()
	return &memSnap{ck: ck}, nil
}

// fetchShards fetches shards of the line until the codec can reconstruct
// it, into a slice with room for the cross-group parity shard when the
// line has one. The first need() shards some peer reported holding are
// fetched at once, each from the first peer that reported it: with every
// holder live, a restore is one round of exactly need() requests. Only the
// shards that round did not yield are swept for (fetchFrag), those with a
// reported holder first. A shard unreachable or digest-mismatched on every
// peer counts as lost, which the erasure codecs tolerate up to their
// parity count. When group-local shards fall short (a whole group died
// together), the cross-group parity shard — the whole blob, one group
// over — is fetched instead, from its reported holder before any sweep
// for shards nobody reported.
func (s *DistStore) fetchShards(owner, version int, rl *remoteLine) [][]byte {
	rec := rl.rec
	_, hasCross := rec.crossHolder()
	units := rec.frags
	if hasCross {
		units++ // the cross-group parity shard at index rec.frags
	}
	shards := make([][]byte, units)
	need := rec.need()
	var plan []shardAsk
	for idx := 0; idx < rec.frags && len(plan) < need; idx++ {
		if hs := rl.holders[idx]; len(hs) > 0 {
			plan = append(plan, shardAsk{idx: idx, peer: hs[0]})
		}
	}
	valid := s.fetchFrom(owner, version, rec, plan, shards)
	sweep := func(reported bool) {
		for idx := 0; idx < rec.frags && valid < need; idx++ {
			if shards[idx] == nil && (len(rl.holders[idx]) > 0) == reported {
				if frag, ok := s.fetchFrag(owner, version, idx, rec); ok {
					shards[idx] = frag
					valid++
				}
			}
		}
	}
	sweep(true)
	if hasCross && valid < need {
		// The parity shard alone reconstructs the line: ask its reported
		// holder before sweeping for shards nobody reported.
		idx := rec.frags
		if hs := rl.holders[idx]; len(hs) > 0 && s.fetchFrom(owner, version, rec, []shardAsk{{idx: idx, peer: hs[0]}}, shards) == 1 {
			return shards
		}
	}
	sweep(false)
	if hasCross && valid < need {
		if frag, ok := s.fetchFrag(owner, version, rec.frags, rec); ok {
			shards[rec.frags] = frag
		}
	}
	return shards
}

// shardAsk is one planned fragment request: shard idx from peer.
type shardAsk struct{ idx, peer int }

// fetchFrom sends every planned request at once, then collects the answers
// until all arrived or the query timeout passed. Each digest-valid shard
// lands in shards; the count of those is returned.
func (s *DistStore) fetchFrom(owner, version int, rec replCommitRec, plan []shardAsk, shards [][]byte) int {
	if len(plan) == 0 {
		return 0
	}
	ch := make(chan distResp, len(plan))
	idxOf := make(map[uint64]int, len(plan))
	for _, a := range plan {
		reqID := s.newRequest(ch)
		idxOf[reqID] = a.idx
		s.send(a.peer, transport.Control, encodeDistQueryFrag(reqID, owner, version, a.idx))
	}
	defer func() {
		for reqID := range idxOf {
			s.dropRequest(reqID)
		}
	}()
	got := 0
	deadline := time.After(s.queryTimeout)
	for range plan {
		select {
		case resp := <-ch:
			reqID, found, frag, err := decodeDistRespFrag(resp.data)
			idx, ok := idxOf[reqID]
			if err == nil && ok && found && shards[idx] == nil && rec.shardValid(idx, frag) {
				shards[idx] = frag
				got++
			}
		case <-deadline:
			return got
		}
	}
	return got
}

// fetchFrag asks each peer in turn for one fragment, repeating the sweep
// up to the configured retry count (a peer may still be re-dialing this
// process's freshly bound mesh when the first round goes out). A fetched
// copy that fails the marker's per-shard digest is rejected and the sweep
// continues — a corrupt replica must not mask a valid one elsewhere.
func (s *DistStore) fetchFrag(owner, version, idx int, rec replCommitRec) ([]byte, bool) {
	for round := 0; round < s.queryRetries; round++ {
		for _, q := range s.peerList() {
			ch := make(chan distResp, 1)
			reqID := s.newRequest(ch)
			s.send(q, transport.Control, encodeDistQueryFrag(reqID, owner, version, idx))
			select {
			case resp := <-ch:
				s.dropRequest(reqID)
				_, found, frag, err := decodeDistRespFrag(resp.data)
				if err == nil && found && rec.shardValid(idx, frag) {
					return frag, true
				}
			case <-time.After(s.queryTimeout):
				s.dropRequest(reqID)
			}
		}
	}
	return nil, false
}

// Retire implements Store: prune old local versions and tell peers to drop
// the fragments and markers they hold below the floor.
func (s *DistStore) Retire(rank, version int) error {
	return s.prune(rank, version, false)
}

// Truncate implements Store: drop versions above the recovery line — local
// memory and peer holdings — so a dead generation cannot resurface.
func (s *DistStore) Truncate(rank, version int) error {
	return s.prune(rank, version, true)
}

func (s *DistStore) prune(rank, version int, above bool) error {
	if rank == s.self {
		s.mu.Lock()
		for v := range s.node.local {
			if (above && v > version) || (!above && v < version) {
				delete(s.node.local, v)
			}
		}
		// The kept peer answer loses what the peers are told to drop: the
		// versions above a truncated line, or all of it on a retire.
		for v := range s.lines {
			if !above || v > version {
				delete(s.lines, v)
			}
		}
		s.mu.Unlock()
	}
	// Prune what this node and every peer hold for the rank. FIFO ordering
	// per pair guarantees the prune lands before any later re-committed
	// fragments for the same versions.
	p := encodeDistPrune(rank, version, above)
	s.mu.Lock()
	for key := range s.node.frags {
		if key.owner == rank && ((above && key.version > version) || (!above && key.version < version)) {
			delete(s.node.frags, key)
		}
	}
	for key := range s.node.commits {
		if key.owner == rank && ((above && key.version > version) || (!above && key.version < version)) {
			delete(s.node.commits, key)
		}
	}
	s.mu.Unlock()
	for _, q := range s.peerList() {
		s.send(q, transport.Control, p)
	}
	return nil
}

var _ Store = (*DistStore)(nil)

// --- Placement and reassembly ---

// commitPlan is the placement decision of one commit, computed over the
// current topology. On a flat (single-group) topology the ring is the
// whole membership: for the dup codec every shard goes to both ring
// successors and the owner keeps a full local copy; for an erasure codec
// each shard goes to exactly one distinct ring successor (rotated
// placement) and no local copy is kept — the memory saving that is the
// codec's point. With members 0..n-1 the plan is the fixed-world plan, so
// existing lines keep their holders until the membership actually changes.
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

// reassembleBlob decodes a shard set against its commit marker: codec
// reconstruction and whole-blob digest validation. The slice may carry the
// cross-group parity shard at index rec.frags; a valid one is the blob
// itself and short-circuits the codec — the whole-group-loss path, where
// zero group-local shards survive. held then reports that the blob is that
// fragment rather than a buffer the codec just built. Decode-around of up
// to m lost or corrupt group-local shards is unchanged when no parity
// shard was fetched.
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

// decodeReplSections parses a replication blob — a section count, then
// (name, length, bytes) per section — into its sections. With view they
// are sub-slices of blob (capacity clipped): for a blob nothing else holds,
// such as one the codec just built. Without it they are copies, for a blob
// that is a fragment some response carried.
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
