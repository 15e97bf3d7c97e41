// Package stable implements the stable-storage abstraction the checkpoint
// protocol writes recovery lines to.
//
// A checkpoint for (rank, version) is a set of named sections written in two
// phases, mirroring the protocol: the application state, MPI state and
// Early-Message-Registry are written when the checkpoint starts
// (chkpt_StartCheckpoint), and the Late-Message-Registry plus request table
// are appended when all late messages are in (chkpt_CommitCheckpoint).
// Commit is atomic: a checkpoint that was not committed is invisible to
// recovery.
//
// Six implementations are provided. Three match the paper's experimental
// configurations (Section 6.4):
//
//   - DiskStore writes sections to per-rank, per-version directories with a
//     rename-committed marker (Configuration #3, "saving application state
//     to the local disk on each node");
//   - NullStore goes through all encoding work but discards the bytes
//     (Configuration #2, "without saving any checkpoint data to disk");
//   - MemStore keeps everything in memory (used by tests and by recovery
//     experiments that should not touch the filesystem).
//
// DelayedStore wraps another store and charges a cost to every write.
// DistStore is the diskless store of one rank, which replicates each line
// to its peers' memory over an interconnect, and ReplicatedStore is an
// in-process world of DistStores. All six keep one contract, run against
// each of them by TestStoreContract.
package stable

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrNotFound is returned when the requested checkpoint or section is
// absent. A checkpoint that was begun and not committed is absent.
var ErrNotFound = errors.New("stable: not found")

// ErrFenced is returned by a fenced DistStore commit: the local rank has
// lost contact with a strict majority of the world (it sits on the
// minority side of a partition), so committing a checkpoint could create
// a recovery line diverging from one the majority commits without it.
// The commit is refused outright — no local copy, no excusal of silent
// neighbors — until the partition heals and the fence lifts.
var ErrFenced = errors.New("stable: fenced (no majority contact)")

// Store is per-node stable storage for checkpoints. Implementations must be
// safe for concurrent use by different ranks; a single (rank, version)
// checkpoint is only ever touched by its own rank.
type Store interface {
	// Begin opens a new checkpoint for (rank, version). Any uncommitted
	// data for the same pair is discarded. Re-beginning a version that is
	// already committed is not supported: recovery truncates above its line
	// before it re-executes.
	Begin(rank, version int) (Checkpoint, error)
	// LastCommitted returns the highest committed version for the rank;
	// ok is false if none exists.
	LastCommitted(rank int) (version int, ok bool, err error)
	// Open returns a committed checkpoint for reading.
	Open(rank, version int) (Snapshot, error)
	// Retire discards committed checkpoints older than version for the
	// rank (garbage collection after a newer global line commits).
	Retire(rank, version int) error
	// Truncate discards committed checkpoints NEWER than version for the
	// rank. Recovery calls it after the world agrees on a recovery line:
	// versions above the line belong to the execution generation that just
	// died and will be re-written by the re-execution. Leaving them in
	// place is unsound — a rank that failed with lines still in its async
	// commit pipeline keeps an older generation's checkpoint at the same
	// version number, and a later recovery would assemble a "global" line
	// from mutually inconsistent generations (the mixed-generation stall
	// the schedule explorer pinned down).
	Truncate(rank, version int) error
}

// StoredSizer is implemented by checkpoint handles whose Commit can report
// how many stable-storage bytes the checkpoint occupies across the world —
// local copy plus replica shards and parity. The ckpt layer exposes the
// total as Stats.StoredBytes, making the codec's storage-overhead ratio
// (StoredBytes / CheckpointBytes) observable per rank.
type StoredSizer interface {
	StoredSize() int64
}

// NodeFailer is implemented by stores that co-locate checkpoint data with
// compute nodes (ReplicatedStore). The runtime calls FailNode when it
// injects a fail-stop failure, so the store loses everything held in the
// failed node's memory — local checkpoints and replica fragments alike —
// and recovery must reassemble the rank's lines from surviving peers.
type NodeFailer interface {
	FailNode(rank int)
}

// Checkpoint is an open, uncommitted checkpoint being written. No write
// retains its input once it returns: the caller may change or reuse the
// bytes at once, which is what lets WriteParts take views of live
// application memory.
type Checkpoint interface {
	// WriteSection stores a named section. Writing a section twice
	// replaces it.
	WriteSection(name string, data []byte) error
	// WriteParts stores a named section whose contents are the
	// concatenation of parts, without joining them first; WriteSection is
	// WriteParts of one part. A disk store writes each part to the
	// section's file as it is, an in-memory or diskless store copies the
	// parts once into its own buffer.
	WriteParts(name string, parts [][]byte) error
	// Commit makes the checkpoint durable and visible to recovery.
	Commit() error
	// Abort discards the checkpoint.
	Abort() error
}

// Snapshot is a committed checkpoint being read.
type Snapshot interface {
	// ReadSection returns a section's contents as a read-only view,
	// valid until the line is retired: the in-memory stores hand out the
	// bytes they hold, not a copy. The caller must not modify them, and
	// must copy whatever it keeps past the line's retirement.
	ReadSection(name string) ([]byte, error)
	// OpenSection returns a reader over one section, open until its Close:
	// for a disk store the section's file itself, read in place, and for an
	// in-memory store a reader of the bytes ReadSection would return.
	OpenSection(name string) (SectionReader, error)
	// Sections lists the section names, sorted.
	Sections() ([]string, error)
	// Close releases resources.
	Close() error
}

// SectionReader reads one section of a committed checkpoint.
type SectionReader interface {
	io.ReaderAt
	io.Closer
	// Size is the section's length in bytes.
	Size() int64
}

// partsLen is the length of the parts' concatenation.
func partsLen(parts [][]byte) (n int) {
	for _, p := range parts {
		n += len(p)
	}
	return n
}

// GlobalLine computes the most recent recovery line committed on all nodes:
// the minimum over ranks of each rank's last committed version, provided
// every rank has one. This mirrors the "global reduction to find the last
// checkpoint committed on all nodes" in chkpt_RestoreCheckpoint; the
// protocol layer performs the reduction over MPI, and uses this helper for
// the local reduction step.
func GlobalLine(lasts []int, oks []bool) (int, bool) {
	line := int(^uint(0) >> 1)
	for i := range lasts {
		if !oks[i] {
			return 0, false
		}
		if lasts[i] < line {
			line = lasts[i]
		}
	}
	return line, len(lasts) > 0
}

// --- In-memory store ---

type memCkpt struct {
	sections map[string][]byte
	commit   bool
}

// MemStore is an in-memory Store.
type MemStore struct {
	mu    sync.Mutex
	byKey map[[2]int]*memCkpt
	// Bytes written accounting, for checkpoint-size experiments.
	bytesWritten int64
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{byKey: make(map[[2]int]*memCkpt)}
}

// BytesWritten returns the total section bytes written so far.
func (s *MemStore) BytesWritten() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytesWritten
}

type memHandle struct {
	store *MemStore
	key   [2]int
	ck    *memCkpt
}

// Begin implements Store.
func (s *MemStore) Begin(rank, version int) (Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := [2]int{rank, version}
	ck := &memCkpt{sections: make(map[string][]byte)}
	s.byKey[key] = ck
	return &memHandle{store: s, key: key, ck: ck}, nil
}

func (h *memHandle) WriteSection(name string, data []byte) error {
	return h.WriteParts(name, [][]byte{data})
}

func (h *memHandle) WriteParts(name string, parts [][]byte) error {
	h.store.mu.Lock()
	defer h.store.mu.Unlock()
	if h.ck.commit {
		return fmt.Errorf("stable: write to committed checkpoint %v", h.key)
	}
	data := bytes.Join(parts, nil)
	h.ck.sections[name] = data
	h.store.bytesWritten += int64(len(data))
	return nil
}

func (h *memHandle) Commit() error {
	h.store.mu.Lock()
	defer h.store.mu.Unlock()
	h.ck.commit = true
	return nil
}

func (h *memHandle) Abort() error {
	h.store.mu.Lock()
	defer h.store.mu.Unlock()
	delete(h.store.byKey, h.key)
	return nil
}

// LastCommitted implements Store.
func (s *MemStore) LastCommitted(rank int) (int, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	best, ok := 0, false
	for key, ck := range s.byKey {
		if key[0] == rank && ck.commit && (!ok || key[1] > best) {
			best, ok = key[1], true
		}
	}
	return best, ok, nil
}

// Open implements Store.
func (s *MemStore) Open(rank, version int) (Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ck, ok := s.byKey[[2]int{rank, version}]
	if !ok || !ck.commit {
		return nil, fmt.Errorf("%w: rank %d version %d", ErrNotFound, rank, version)
	}
	return &memSnap{ck: ck}, nil
}

// Retire implements Store.
func (s *MemStore) Retire(rank, version int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for key := range s.byKey {
		if key[0] == rank && key[1] < version {
			delete(s.byKey, key)
		}
	}
	return nil
}

// Truncate implements Store.
func (s *MemStore) Truncate(rank, version int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for key := range s.byKey {
		if key[0] == rank && key[1] > version {
			delete(s.byKey, key)
		}
	}
	return nil
}

type memSnap struct{ ck *memCkpt }

func (m *memSnap) ReadSection(name string) ([]byte, error) {
	data, ok := m.ck.sections[name]
	if !ok {
		return nil, fmt.Errorf("%w: section %q", ErrNotFound, name)
	}
	return data, nil
}

func (m *memSnap) OpenSection(name string) (SectionReader, error) {
	data, err := m.ReadSection(name)
	if err != nil {
		return nil, err
	}
	return viewSection{bytes.NewReader(data)}, nil
}

// viewSection reads a section an in-memory store holds, where it lies.
type viewSection struct{ *bytes.Reader }

func (viewSection) Close() error { return nil }

func (m *memSnap) Sections() ([]string, error) {
	names := make([]string, 0, len(m.ck.sections))
	for n := range m.ck.sections {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

func (m *memSnap) Close() error { return nil }

// --- Null store (Configuration #2) ---

// NullStore discards all data but counts bytes, so the full encoding cost is
// paid without any storage cost.
type NullStore struct {
	mu           sync.Mutex
	bytesWritten int64
}

// NewNullStore returns a NullStore.
func NewNullStore() *NullStore { return &NullStore{} }

// BytesWritten returns the total bytes that were encoded and discarded.
func (s *NullStore) BytesWritten() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytesWritten
}

type nullHandle struct{ store *NullStore }

// Begin implements Store.
func (s *NullStore) Begin(rank, version int) (Checkpoint, error) {
	return &nullHandle{store: s}, nil
}

func (h *nullHandle) WriteSection(name string, data []byte) error {
	return h.WriteParts(name, [][]byte{data})
}

func (h *nullHandle) WriteParts(name string, parts [][]byte) error {
	h.store.mu.Lock()
	h.store.bytesWritten += int64(partsLen(parts))
	h.store.mu.Unlock()
	return nil
}

func (h *nullHandle) Commit() error { return nil }

func (h *nullHandle) Abort() error { return nil }

// LastCommitted implements Store. A NullStore never admits to having a
// checkpoint — it cannot be restored from.
func (s *NullStore) LastCommitted(rank int) (int, bool, error) { return 0, false, nil }

// Open implements Store.
func (s *NullStore) Open(rank, version int) (Snapshot, error) {
	return nil, fmt.Errorf("%w: null store holds no data", ErrNotFound)
}

// Retire implements Store.
func (s *NullStore) Retire(rank, version int) error { return nil }

// Truncate implements Store.
func (s *NullStore) Truncate(rank, version int) error { return nil }

// --- Disk store (Configuration #3) ---

// DiskStore writes checkpoints under root/rank<r>/v<version>/, one file per
// section, with a "COMMITTED" marker file created by atomic rename. The
// marker's contents are a structured CommitMeta record (membership epoch,
// per-section digests — see marker.go); its presence alone is what marks
// the version committed.
type DiskStore struct {
	root string
}

// NewDiskStore creates (if needed) and opens a store rooted at dir.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("stable: create root: %w", err)
	}
	return &DiskStore{root: dir}, nil
}

func (s *DiskStore) dir(rank, version int) string {
	return filepath.Join(s.root, fmt.Sprintf("rank%04d", rank), fmt.Sprintf("v%08d", version))
}

// diskHandle writes one version directory. Each section's bytes reach the
// kernel synchronously in WriteSection; its fsync and close, like Begin's
// directory syncs, run on a goroutine the handle tracks, and Commit (or
// Abort) joins them all before it goes on.
type diskHandle struct {
	store    *DiskStore
	rank     int
	ver      int
	dir      string
	sections []SectionMeta
	crash    func(stage string) bool // diskCrashpoint as of Begin

	syncs   sync.WaitGroup
	errMu   sync.Mutex
	syncErr error // the first background sync's failure
}

// Begin implements Store.
func (s *DiskStore) Begin(rank, version int) (Checkpoint, error) {
	dir := s.dir(rank, version)
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("stable: clear stale checkpoint: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("stable: create checkpoint dir: %w", err)
	}
	h := &diskHandle{store: s, rank: rank, ver: version, dir: dir, crash: diskCrashpoint}
	// The version directory's own entry lives in the rank directory, and
	// the rank directory's entry in the store root; without syncing those
	// too, a machine crash after Commit returns could leave the freshly
	// committed version's directory missing entirely — while the protocol
	// has already retired the older lines it replaced. Both entries exist
	// now, so their syncs can run while the sections are written.
	h.inBackground("sync rank dir", func() error { return syncDir(filepath.Dir(dir)) })
	h.inBackground("sync store root", func() error { return syncDir(s.root) })
	return h, nil
}

// inBackground runs one durability step on a goroutine the handle joins in
// Commit or Abort, keeping the first failure for Commit to report.
func (h *diskHandle) inBackground(what string, step func() error) {
	h.syncs.Add(1)
	go func() {
		defer h.syncs.Done()
		if err := step(); err != nil {
			h.errMu.Lock()
			if h.syncErr == nil {
				h.syncErr = fmt.Errorf("stable: %s: %w", what, err)
			}
			h.errMu.Unlock()
		}
	}()
}

// join waits for every background step and returns the first failure.
func (h *diskHandle) join() error {
	h.syncs.Wait()
	h.errMu.Lock()
	defer h.errMu.Unlock()
	return h.syncErr
}

func sectionFile(name string) string {
	// Section names are protocol-chosen identifiers; keep them path-safe.
	return "s_" + strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, name) + ".bin"
}

// diskCrashpoint, when non-nil, is consulted at each commit stage; a true
// return simulates the process dying (or the device failing) at that point
// (the torn-commit test). Stages, in order: "section-sync" (each section's
// background fsync, which then reports failure), "marker-write",
// "marker-rename", "dir-sync". Begin hands its value to the handle, so
// tests set it before Begin and a handle left running by an earlier test
// never reads it concurrently.
var diskCrashpoint func(stage string) bool

// crashAt reports whether the handle's crashpoint fires at stage.
func (h *diskHandle) crashAt(stage string) bool { return h.crash != nil && h.crash(stage) }

// errSimulatedCrash marks a crashpoint-triggered abort in tests.
var errSimulatedCrash = errors.New("stable: simulated crash")

// writeFileSync writes data to path and fsyncs it, so the contents are
// durable before any rename that makes them visible.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return syncClose(f)
}

// syncClose fsyncs f and closes it, reporting the first failure.
func syncClose(f *os.File) error {
	err := f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory, making its entries (renames, creations)
// durable. Required on POSIX systems: renaming the commit marker is atomic
// in the namespace but not durable until the directory itself is synced.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (h *diskHandle) WriteSection(name string, data []byte) error {
	return h.WriteParts(name, [][]byte{data})
}

// WriteParts writes the section straight to its final file, one Write per
// part, and digests each part as it goes: only the COMMITTED marker makes
// a version visible, so no tmp file and rename are needed. The parts are
// not retained once WriteParts returns; the file's fsync and close run in
// the background until Commit or Abort joins them.
func (h *diskHandle) WriteParts(name string, parts [][]byte) error {
	file := sectionFile(name)
	for _, s := range h.sections {
		if s.Name != name && sectionFile(s.Name) == file {
			return fmt.Errorf("stable: section %q maps to the same file %s as section %q", name, file, s.Name)
		}
	}
	f, err := os.OpenFile(filepath.Join(h.dir, file), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("stable: write section %q: %w", name, err)
	}
	var sum uint32
	for _, p := range parts {
		if _, err := f.Write(p); err != nil {
			_ = f.Close() // the write error is the one to report
			return fmt.Errorf("stable: write section %q: %w", name, err)
		}
		sum = crc32.Update(sum, castagnoli, p)
	}
	h.inBackground(fmt.Sprintf("sync section %q", name), func() error {
		err := syncClose(f)
		if h.crashAt("section-sync") {
			return errSimulatedCrash
		}
		return err
	})
	meta := SectionMeta{Name: name, Bytes: partsLen(parts), Sum: uint64(sum)}
	for i, s := range h.sections {
		if s.Name == name { // re-written section: replace its record
			h.sections[i] = meta
			return nil
		}
	}
	h.sections = append(h.sections, meta)
	return nil
}

// Commit makes the checkpoint durable against real process or machine
// death, in write-ahead order: (1) every section's fsync and the rank
// directory and store root syncs, in flight since WriteSection and Begin,
// are joined, (2) the version directory is synced so every section file's
// entry is durable, (3) the marker's contents are written and synced,
// (4) the marker is renamed into place, (5) the directory is synced again
// so the rename itself is durable. A crash between any two steps leaves
// either no marker (the version is invisible and recovery uses the
// previous line) or a complete marker over fully durable sections — never
// a marker naming partial data. When Commit returns nil the version's
// whole path, from the store root down, is durable.
func (h *diskHandle) Commit() error {
	if err := h.join(); err != nil {
		return err
	}
	if err := syncDir(h.dir); err != nil {
		return fmt.Errorf("stable: sync checkpoint dir: %w", err)
	}
	if h.crashAt("marker-write") {
		return errSimulatedCrash
	}
	tmp := filepath.Join(h.dir, ".committing")
	if err := writeFileSync(tmp, encodeCommitMeta(CommitMeta{Sections: h.sections})); err != nil {
		return fmt.Errorf("stable: write commit marker: %w", err)
	}
	if h.crashAt("marker-rename") {
		return errSimulatedCrash
	}
	if err := os.Rename(tmp, filepath.Join(h.dir, "COMMITTED")); err != nil {
		return fmt.Errorf("stable: commit: %w", err)
	}
	if h.crashAt("dir-sync") {
		return errSimulatedCrash
	}
	if err := syncDir(h.dir); err != nil {
		return fmt.Errorf("stable: sync commit marker: %w", err)
	}
	return nil
}

// Abort joins the handle's background syncs, whose outcome no longer
// matters, and removes the version directory.
func (h *diskHandle) Abort() error {
	_ = h.join() // the version is being discarded: its sync failures are moot
	return os.RemoveAll(h.dir)
}

// versions lists the version directories of rank, by version number. A
// rank that has no directory has no versions; an entry that is not a
// version directory is skipped.
func (s *DiskStore) versions(rank int) (map[int]string, error) {
	rankDir := filepath.Join(s.root, fmt.Sprintf("rank%04d", rank))
	entries, err := os.ReadDir(rankDir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	dirs := make(map[int]string, len(entries))
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "v") {
			continue
		}
		var v int
		if _, err := fmt.Sscanf(e.Name(), "v%d", &v); err == nil {
			dirs[v] = filepath.Join(rankDir, e.Name())
		}
	}
	return dirs, nil
}

// LastCommitted implements Store.
func (s *DiskStore) LastCommitted(rank int) (int, bool, error) {
	dirs, err := s.versions(rank)
	if err != nil {
		return 0, false, fmt.Errorf("stable: list versions: %w", err)
	}
	best, ok := 0, false
	for v, dir := range dirs {
		if _, err := os.Stat(filepath.Join(dir, "COMMITTED")); err != nil {
			continue
		}
		if !ok || v > best {
			best, ok = v, true
		}
	}
	return best, ok, nil
}

// Open implements Store.
func (s *DiskStore) Open(rank, version int) (Snapshot, error) {
	dir := s.dir(rank, version)
	if _, err := os.Stat(filepath.Join(dir, "COMMITTED")); err != nil {
		return nil, fmt.Errorf("%w: rank %d version %d", ErrNotFound, rank, version)
	}
	return &diskSnap{dir: dir}, nil
}

// Retire implements Store.
func (s *DiskStore) Retire(rank, version int) error {
	return s.remove(rank, func(v int) bool { return v < version })
}

// Truncate implements Store.
func (s *DiskStore) Truncate(rank, version int) error {
	return s.remove(rank, func(v int) bool { return v > version })
}

// remove deletes rank's version directories whose version drop selects.
func (s *DiskStore) remove(rank int, drop func(v int) bool) error {
	dirs, err := s.versions(rank)
	if err != nil {
		return err
	}
	for v, dir := range dirs {
		if drop(v) {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
	}
	return nil
}

type diskSnap struct{ dir string }

func (d *diskSnap) ReadSection(name string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(d.dir, sectionFile(name)))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: section %q", ErrNotFound, name)
	}
	return data, err
}

func (d *diskSnap) OpenSection(name string) (SectionReader, error) {
	f, err := os.Open(filepath.Join(d.dir, sectionFile(name)))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: section %q", ErrNotFound, name)
	}
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close() // the stat error is the one to report
		return nil, err
	}
	return fileSection{io.NewSectionReader(f, 0, st.Size()), f}, nil
}

// fileSection reads a section file with pread, until it is closed.
type fileSection struct {
	*io.SectionReader
	io.Closer
}

// Sections lists the names the commit marker records, which are the names
// as written: a section's file name is the name made path-safe.
func (d *diskSnap) Sections() ([]string, error) {
	meta, err := readMarker(d.dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(meta.Sections))
	for i, s := range meta.Sections {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names, nil
}

func (d *diskSnap) Close() error { return nil }
