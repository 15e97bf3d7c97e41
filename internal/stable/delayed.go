package stable

import "time"

// DelayedStore wraps a Store and charges an artificial cost to every write
// operation, emulating slower stable storage (an NFS-mounted or parallel
// filesystem, the configurations the paper's Section 6.4 worries about)
// independently of how fast the machine's local disk happens to be. Reads
// are undelayed: recovery cost experiments measure the real store.
//
// The async-commit experiments use it to make the blocking-vs-asynchronous
// comparison deterministic: a blocking commit pays the write delay on the
// application's critical path, the async pipeline pays it on the background
// committer.
type DelayedStore struct {
	inner     Store
	perOp     time.Duration
	bandwidth float64 // bytes/second; <= 0 means infinite
}

// NewDelayedStore wraps inner, charging perOp on every section write and
// Commit plus a per-byte cost derived from bandwidth (bytes/second).
func NewDelayedStore(inner Store, perOp time.Duration, bandwidth float64) *DelayedStore {
	return &DelayedStore{inner: inner, perOp: perOp, bandwidth: bandwidth}
}

func (s *DelayedStore) charge(bytes int) {
	d := s.perOp
	if s.bandwidth > 0 {
		d += time.Duration(float64(bytes) / s.bandwidth * float64(time.Second))
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// Begin implements Store.
func (s *DelayedStore) Begin(rank, version int) (Checkpoint, error) {
	ck, err := s.inner.Begin(rank, version)
	if err != nil {
		return nil, err
	}
	return &delayedCkpt{store: s, inner: ck}, nil
}

// LastCommitted implements Store.
func (s *DelayedStore) LastCommitted(rank int) (int, bool, error) {
	return s.inner.LastCommitted(rank)
}

// Open implements Store.
func (s *DelayedStore) Open(rank, version int) (Snapshot, error) {
	return s.inner.Open(rank, version)
}

// Retire implements Store.
func (s *DelayedStore) Retire(rank, version int) error {
	return s.inner.Retire(rank, version)
}

// Truncate implements Store.
func (s *DelayedStore) Truncate(rank, version int) error {
	return s.inner.Truncate(rank, version)
}

// FailNode forwards to the inner store when it co-locates data with nodes.
func (s *DelayedStore) FailNode(rank int) {
	if nf, ok := s.inner.(NodeFailer); ok {
		nf.FailNode(rank)
	}
}

type delayedCkpt struct {
	store *DelayedStore
	inner Checkpoint
}

func (c *delayedCkpt) WriteSection(name string, data []byte) error {
	return c.WriteParts(name, [][]byte{data})
}

func (c *delayedCkpt) WriteParts(name string, parts [][]byte) error {
	c.store.charge(partsLen(parts))
	return c.inner.WriteParts(name, parts)
}

func (c *delayedCkpt) Commit() error {
	c.store.charge(0)
	return c.inner.Commit()
}

func (c *delayedCkpt) Abort() error { return c.inner.Abort() }
