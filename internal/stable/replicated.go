package stable

import (
	"c3/internal/member"
	"c3/internal/transport"
)

// ReplicatedStore is the diskless, ReStore-style stable store of an
// in-process world: n DistStores, one per rank, over one in-memory
// transport.Network. Every rank keeps its checkpoints in its own node's
// memory and, at commit, ships their shards to its ring successors over
// that network — the protocol the multi-process runtime speaks over TCP,
// run by the same engine. Every Store method is the owning rank's
// DistStore's.
//
// Failure model: the runtime injects a fail-stop failure through FailNode,
// which wipes everything in the failed node's memory — its own checkpoints
// and the shards it held for peers, replication traffic queued to it at
// that instant included. The restarted rank's recovery then finds no local
// copy and reassembles its last committed line from the shards surviving
// on peer nodes; a committed line is lost only if more of its holders fail
// together than the codec tolerates.
//
// Commit is synchronous-replicated: it returns once every live holder has
// acknowledged the shards and the commit marker, so a line reported
// committed is immediately recoverable from peers. Combined with the ckpt
// layer's asynchronous commit pipeline, the acknowledgment wait happens on
// the background committer, off the application's critical path.
type ReplicatedStore struct {
	net   *transport.Network
	nodes []*DistStore
}

// NewReplicatedStore creates the store for a world of n ranks. Every node
// gets the same options (WithDistCodec, WithDistGroupSize, ...). The store
// owns n replication daemons; call Close when done with it.
func NewReplicatedStore(n int, opts ...DistOption) *ReplicatedStore {
	return newReplicatedStore(transport.NewNetwork(n), opts...)
}

// newReplicatedStore builds the world over a given network.
func newReplicatedStore(net *transport.Network, opts ...DistOption) *ReplicatedStore {
	s := &ReplicatedStore{net: net, nodes: make([]*DistStore, net.Size())}
	for r := range s.nodes {
		s.nodes[r] = NewDistStore(r, len(s.nodes), net, opts...)
	}
	return s
}

// Close shuts the replication network and daemons down. Outstanding
// commits unblock with their current acknowledgment state.
func (s *ReplicatedStore) Close() {
	for _, node := range s.nodes {
		node.Close()
	}
}

// Begin implements Store.
func (s *ReplicatedStore) Begin(rank, version int) (Checkpoint, error) {
	return s.nodes[rank].Begin(rank, version)
}

// LastCommitted implements Store.
func (s *ReplicatedStore) LastCommitted(rank int) (int, bool, error) {
	return s.nodes[rank].LastCommitted(rank)
}

// Open implements Store.
func (s *ReplicatedStore) Open(rank, version int) (Snapshot, error) {
	return s.nodes[rank].Open(rank, version)
}

// Retire implements Store.
func (s *ReplicatedStore) Retire(rank, version int) error {
	return s.nodes[rank].Retire(rank, version)
}

// Truncate implements Store.
func (s *ReplicatedStore) Truncate(rank, version int) error {
	return s.nodes[rank].Truncate(rank, version)
}

// SetMembership installs a new member ring on every node. Like DistStore,
// the world re-partitions lazily: committed lines stay where the old ring
// put them, and the next committed line lands on the new one.
func (s *ReplicatedStore) SetMembership(m member.Set) {
	for _, node := range s.nodes {
		node.SetMembership(m)
	}
}

// FailNode implements NodeFailer: rank's node memory is lost, and every
// other node treats it as a holder that lost its shards — through the wipe
// and until it is done, so a commit whose shards may land before the cut
// never counts them.
func (s *ReplicatedStore) FailNode(rank int) {
	for r, node := range s.nodes {
		if r != rank {
			node.holderWiping(rank, true)
		}
	}
	s.nodes[rank].wipe()
	for r, node := range s.nodes {
		if r != rank {
			node.holderWiping(rank, false)
		}
	}
}

// NetworkStats returns the replication interconnect's delivery counters.
func (s *ReplicatedStore) NetworkStats() transport.Stats { return s.net.Stats() }

// BytesWritten returns the section bytes written across all nodes.
func (s *ReplicatedStore) BytesWritten() int64 { return s.sum((*DistStore).BytesWritten) }

// ReplicatedBytes returns the fragment bytes shipped to peer nodes.
func (s *ReplicatedStore) ReplicatedBytes() int64 { return s.sum((*DistStore).ReplicatedBytes) }

// Reassemblies reports how many checkpoints were rebuilt from peer
// fragments because the owner's local copy was gone — the disk-free
// recovery path.
func (s *ReplicatedStore) Reassemblies() int64 { return s.sum((*DistStore).Reassemblies) }

// StoredBytes returns the checkpoint bytes resident across all node
// memories once every prune already sent has landed: full local copies
// plus replica shards. Divided by the world size it is the per-rank memory
// tax the codec ablation measures.
func (s *ReplicatedStore) StoredBytes() int64 {
	s.settle()
	return s.sum((*DistStore).StoredBytes)
}

func (s *ReplicatedStore) sum(counter func(*DistStore) int64) (total int64) {
	for _, node := range s.nodes {
		total += counter(node)
	}
	return total
}

// settle returns once every node has handled what the others sent it
// before the call: a query round from each node follows its earlier
// traffic down every FIFO pair.
func (s *ReplicatedStore) settle() {
	for r, node := range s.nodes {
		node.queryPeers(r, nil)
	}
}

var (
	_ Store      = (*ReplicatedStore)(nil)
	_ NodeFailer = (*ReplicatedStore)(nil)
)
