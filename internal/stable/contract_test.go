package stable

// The store contract: one table of cases, each run against every Store —
// MemStore, NullStore, DiskStore, a DelayedStore over a MemStore, a
// ReplicatedStore, and one DistStore of a world over the in-memory Network
// and of a world over loopback TCP meshes. A case states a promise the
// paper's stable storage makes whatever the configuration: a line is
// invisible to recovery until Commit, and it then reads back exactly what
// was written. What a store cannot express is a capability it lacks, named
// with the reason; a case that needs it does not run there, and the test
// log says why.

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
)

// capability is something a case needs that not every store can express.
type capability string

const (
	// keepsBytes: a committed line can be opened and read.
	keepsBytes capability = "keep bytes"
	// survivesLoss: a committed line outlives the owner's memory.
	survivesLoss capability = "survive the loss of the owner's memory"
	// views: ReadSection hands out the bytes the store holds.
	views capability = "hand out read views"
	// countsBytes: the store counts the section bytes written to it.
	countsBytes capability = "count BytesWritten"
	// storedSize: a handle reports what its commit stores (StoredSizer).
	storedSize capability = "report a StoredSize"
)

const (
	inProcess = "its lines live only in this process's memory"
	noSize    = "its handle reports no stored size"
)

// storeKind builds stores of one implementation.
type storeKind struct {
	name  string
	lacks map[capability]string
	build func(t *testing.T) *contractStore
}

// contractStore is one store as a case sees it.
type contractStore struct {
	Store
	rank  int                   // the rank the store hosts: a DistStore writes only its own
	lacks map[capability]string // what its kind cannot express
	// lose drops the owner's memory, or reopens the store's directory, and
	// returns the store to read from afterwards.
	lose         func() Store
	bytesWritten func() int64
}

var storeKinds = []storeKind{
	{"mem", map[capability]string{survivesLoss: inProcess, storedSize: noSize}, func(t *testing.T) *contractStore {
		s := NewMemStore()
		return &contractStore{Store: s, rank: 1, bytesWritten: s.BytesWritten}
	}},
	{"null", map[capability]string{
		keepsBytes:   "it discards every byte it is given",
		survivesLoss: "it keeps no line to lose",
		views:        "it holds no bytes to hand out",
		storedSize:   noSize,
	}, func(t *testing.T) *contractStore {
		s := NewNullStore()
		return &contractStore{Store: s, rank: 1, bytesWritten: s.BytesWritten}
	}},
	{"disk", map[capability]string{
		views:       "a read copies the section file into a buffer of its own",
		countsBytes: "it keeps no count of the bytes written",
		storedSize:  noSize,
	}, func(t *testing.T) *contractStore {
		dir := t.TempDir()
		s, err := NewDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return &contractStore{Store: s, rank: 1, lose: func() Store {
			reopened, err := NewDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			return reopened
		}}
	}},
	{"delayed", map[capability]string{
		survivesLoss: inProcess,
		countsBytes:  "the count is its inner store's",
		storedSize:   noSize,
	}, func(t *testing.T) *contractStore {
		return &contractStore{Store: NewDelayedStore(NewMemStore(), 0, 0), rank: 1}
	}},
	{"replicated", nil, func(t *testing.T) *contractStore {
		s := NewReplicatedStore(4)
		t.Cleanup(s.Close)
		return &contractStore{Store: s, rank: 1, bytesWritten: s.BytesWritten,
			lose: func() Store { s.FailNode(1); return s }}
	}},
	{"dist-memory", nil, func(t *testing.T) *contractStore {
		s := distWorld(t, 4)[1]
		return &contractStore{Store: s, rank: 1, bytesWritten: s.BytesWritten,
			lose: func() Store { s.wipe(); return s }}
	}},
	{"dist-tcp", nil, func(t *testing.T) *contractStore {
		s := tcpDistWorld(t, 4)[1]
		return &contractStore{Store: s, rank: 1, bytesWritten: s.BytesWritten, lose: func() Store {
			s.mu.Lock()
			s.node.local = make(map[int]*memCkpt)
			s.mu.Unlock()
			return s
		}}
	}},
}

type storeCase struct {
	name  string
	needs []capability
	run   func(t *testing.T, s *contractStore)
}

// cannot returns why k cannot run c, or "" when it can.
func (k storeKind) cannot(c storeCase) string {
	for _, need := range c.needs {
		if why, ok := k.lacks[need]; ok {
			return fmt.Sprintf("it cannot %s (%s)", need, why)
		}
	}
	return ""
}

// TestStoreContract runs every contract case against every store that can
// express it.
func TestStoreContract(t *testing.T) {
	for _, k := range storeKinds {
		t.Run(k.name, func(t *testing.T) {
			for _, c := range storeCases {
				if why := k.cannot(c); why != "" {
					t.Logf("%s does not apply: %s", c.name, why)
					continue
				}
				t.Run(c.name, func(t *testing.T) {
					s := k.build(t)
					s.lacks = k.lacks
					c.run(t, s)
				})
			}
		})
	}
}

var storeCases = []storeCase{
	{name: "invisible-until-commit", run: invisibleUntilCommit},
	{name: "committed-reads-back", needs: []capability{keepsBytes}, run: committedReadsBack},
	{name: "newest-committed-wins", needs: []capability{keepsBytes}, run: newestCommittedWins},
	{name: "begin-discards-abandoned", needs: []capability{keepsBytes}, run: beginDiscardsAbandoned},
	{name: "retire-and-truncate", needs: []capability{keepsBytes}, run: retireAndTruncate},
	{name: "parts-are-one-section", needs: []capability{keepsBytes}, run: partsAreOneSection},
	{name: "rewrite-keeps-second", needs: []capability{keepsBytes}, run: rewriteKeepsSecond},
	{name: "order-irrelevant", needs: []capability{keepsBytes}, run: orderIrrelevant},
	{name: "writes-not-retained", needs: []capability{keepsBytes}, run: writesNotRetained},
	{name: "reads-are-views", needs: []capability{keepsBytes, views}, run: readsAreViews},
	{name: "bytes-written", needs: []capability{countsBytes}, run: countsBytesWritten},
	{name: "stored-size", needs: []capability{storedSize}, run: reportsStoredSize},
	{name: "survives-loss", needs: []capability{keepsBytes, survivesLoss}, run: survivesOwnerLoss},
}

// write is one section write: WriteSection of data, or WriteParts of
// parts when parts is non-nil.
type write struct {
	name  string
	data  []byte
	parts [][]byte
}

// begin begins version v of the store's rank.
func (s *contractStore) begin(t *testing.T, v int) Checkpoint {
	t.Helper()
	ck, err := s.Begin(s.rank, v)
	if err != nil {
		t.Fatalf("Begin(%d, %d): %v", s.rank, v, err)
	}
	return ck
}

// put makes the writes on ck, in order.
func put(t *testing.T, ck Checkpoint, writes ...write) {
	t.Helper()
	for _, w := range writes {
		var err error
		if w.parts != nil {
			err = ck.WriteParts(w.name, w.parts)
		} else {
			err = ck.WriteSection(w.name, w.data)
		}
		if err != nil {
			t.Fatalf("write %q: %v", w.name, err)
		}
	}
}

// commit writes version v and commits it.
func (s *contractStore) commit(t *testing.T, v int, writes ...write) {
	t.Helper()
	ck := s.begin(t, v)
	put(t, ck, writes...)
	if err := ck.Commit(); err != nil {
		t.Fatalf("Commit(%d, %d): %v", s.rank, v, err)
	}
}

// sectionsOf writes each section of want once, in name order.
func sectionsOf(want map[string][]byte) []write {
	var writes []write
	for _, name := range sortedNames(want) {
		writes = append(writes, write{name: name, data: want[name]})
	}
	return writes
}

func sortedNames(m map[string][]byte) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// expectLast checks what LastCommitted reports for rank.
func expectLast(t *testing.T, st Store, rank, want int, wantOK bool) {
	t.Helper()
	v, ok, err := st.LastCommitted(rank)
	if err != nil || ok != wantOK || ok && v != want {
		t.Fatalf("LastCommitted = (%d, %v, %v), want (%d, %v, nil)", v, ok, err, want, wantOK)
	}
}

// expectGone checks that version v of rank does not open.
func expectGone(t *testing.T, st Store, rank, v int) {
	t.Helper()
	snap, err := st.Open(rank, v)
	if !errors.Is(err, ErrNotFound) {
		if err == nil {
			_ = snap.Close() // the failure is that it opened
		}
		t.Fatalf("Open(%d, %d) = %v, want ErrNotFound", rank, v, err)
	}
}

// expectLine checks that version v of rank lists exactly want's sections
// and that each reads back as want holds it, through ReadSection and
// OpenSection alike; a section it lacks is ErrNotFound both ways.
func expectLine(t *testing.T, st Store, rank, v int, want map[string][]byte) {
	t.Helper()
	snap, err := st.Open(rank, v)
	if err != nil {
		t.Fatalf("Open(%d, %d): %v", rank, v, err)
	}
	defer snap.Close()
	names, err := snap.Sections()
	if err != nil || !slices.Equal(names, sortedNames(want)) {
		t.Fatalf("v%d: Sections = %q, %v; want %q", v, names, err, sortedNames(want))
	}
	for _, name := range names {
		data, err := snap.ReadSection(name)
		if err != nil || !bytes.Equal(data, want[name]) {
			t.Fatalf("v%d: ReadSection(%q) = %d bytes, %v; want the %d written", v, name, len(data), err, len(want[name]))
		}
		sec, err := snap.OpenSection(name)
		if err != nil {
			t.Fatalf("v%d: OpenSection(%q): %v", v, name, err)
		}
		got := make([]byte, sec.Size())
		if n, err := sec.ReadAt(got, 0); n != len(got) || !bytes.Equal(got, data) {
			t.Fatalf("v%d: OpenSection(%q) read %d of %d bytes (%v), not what ReadSection gave", v, name, n, len(got), err)
		}
		if err := sec.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := snap.ReadSection("absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("v%d: ReadSection of an absent section = %v, want ErrNotFound", v, err)
	}
	if _, err := snap.OpenSection("absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("v%d: OpenSection of an absent section = %v, want ErrNotFound", v, err)
	}
}

// invisibleUntilCommit: a line begun, written and not committed, or
// aborted, is invisible; once committed it is visible exactly when the
// store keeps bytes.
func invisibleUntilCommit(t *testing.T, s *contractStore) {
	want := map[string][]byte{"app": []byte("state-v1")}
	ck := s.begin(t, 1)
	put(t, ck, sectionsOf(want)...)
	expectLast(t, s, s.rank, 0, false)
	expectGone(t, s, s.rank, 1)
	if err := ck.Abort(); err != nil {
		t.Fatal(err)
	}
	expectLast(t, s, s.rank, 0, false)
	expectGone(t, s, s.rank, 1)

	ck = s.begin(t, 2)
	put(t, ck, sectionsOf(want)...)
	expectLast(t, s, s.rank, 0, false)
	expectGone(t, s, s.rank, 2)
	if err := ck.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, discards := s.lacks[keepsBytes]; discards {
		expectLast(t, s, s.rank, 0, false)
		expectGone(t, s, s.rank, 2)
		return
	}
	expectLast(t, s, s.rank, 2, true)
	expectLine(t, s, s.rank, 2, want)
}

// committedReadsBack: a committed line lists its sections by the names
// written, one outside [A-Za-z0-9_-] and an empty section among them, and
// reads each back.
func committedReadsBack(t *testing.T, s *contractStore) {
	want := map[string][]byte{
		"app": testBlob(100_003, 1), "mpi": []byte("tables"), "user state": testBlob(999, 2), "early": {},
	}
	s.commit(t, 1, sectionsOf(want)...)
	expectLast(t, s, s.rank, 1, true)
	expectLine(t, s, s.rank, 1, want)
}

// newestCommittedWins: LastCommitted reports the newest committed line,
// not a newer one still being written.
func newestCommittedWins(t *testing.T, s *contractStore) {
	for v := 1; v <= 3; v++ {
		s.commit(t, v, write{name: "s", data: []byte{byte(v)}})
	}
	ck := s.begin(t, 5)
	put(t, ck, write{name: "s", data: []byte{5}})
	expectLast(t, s, s.rank, 3, true)
	if err := ck.Abort(); err != nil {
		t.Fatal(err)
	}
	expectLast(t, s, s.rank, 3, true)
}

// beginDiscardsAbandoned: a handle abandoned mid-write (its process died
// before Commit or Abort) leaves nothing in the line a later Begin of the
// same version commits.
func beginDiscardsAbandoned(t *testing.T, s *contractStore) {
	old := s.begin(t, 7)
	// Large enough that a disk handle's syncs may still be in flight.
	put(t, old, write{name: "old", data: []byte("junk")}, write{name: "app", data: testBlob(1<<20, 1)})
	want := map[string][]byte{"app": []byte("fresh")}
	s.commit(t, 7, sectionsOf(want)...)
	expectLine(t, s, s.rank, 7, want)
}

// retireAndTruncate: Retire drops the lines below its floor and keeps the
// floor; Truncate drops the lines above its version and keeps the rest.
func retireAndTruncate(t *testing.T, s *contractStore) {
	line := func(v int) map[string][]byte { return map[string][]byte{"s": {byte(v)}} }
	for v := 1; v <= 5; v++ {
		s.commit(t, v, sectionsOf(line(v))...)
	}
	if err := s.Retire(s.rank, 3); err != nil {
		t.Fatal(err)
	}
	expectGone(t, s, s.rank, 1)
	expectGone(t, s, s.rank, 2)
	expectLine(t, s, s.rank, 3, line(3))
	if err := s.Truncate(s.rank, 4); err != nil {
		t.Fatal(err)
	}
	expectLast(t, s, s.rank, 4, true)
	expectGone(t, s, s.rank, 5)
	expectLine(t, s, s.rank, 4, line(4))
	expectLine(t, s, s.rank, 3, line(3))
}

// partsAreOneSection: a section written as parts, empty ones among them,
// is the section WriteSection writes for their concatenation.
func partsAreOneSection(t *testing.T, s *contractStore) {
	parts := [][]byte{[]byte("ab"), nil, testBlob(70_001, 3), {}, []byte("cde")}
	want := map[string][]byte{"app": bytes.Join(parts, nil)}
	s.commit(t, 1, write{name: "app", data: want["app"]})
	s.commit(t, 2, write{name: "app", parts: parts})
	expectLine(t, s, s.rank, 1, want)
	expectLine(t, s, s.rank, 2, want)
}

// rewriteKeepsSecond: a section written twice in one line keeps its
// second content.
func rewriteKeepsSecond(t *testing.T, s *contractStore) {
	first, second := testBlob(1<<20, 1), testBlob(4096, 2)
	s.commit(t, 1, write{name: "app", data: first}, write{name: "mpi", data: []byte("mpi")}, write{name: "app", data: second})
	expectLine(t, s, s.rank, 1, map[string][]byte{"app": second, "mpi": []byte("mpi")})
}

// orderIrrelevant: the same sections written in any order read back the
// same.
func orderIrrelevant(t *testing.T, s *contractStore) {
	want := map[string][]byte{
		"app": testBlob(9000, 3), "mpi": []byte("tables"), "early": {}, "late": {1, 2, 3}, "results": testBlob(100, 4),
	}
	orders := [][]string{
		{"app", "mpi", "early", "late", "results"},
		{"results", "late", "early", "mpi", "app"},
		{"early", "app", "results", "mpi", "late"},
	}
	for i, order := range orders {
		var writes []write
		for _, name := range order {
			writes = append(writes, write{name: name, data: want[name]})
		}
		s.commit(t, i+1, writes...)
	}
	for v := 1; v <= len(orders); v++ {
		expectLine(t, s, s.rank, v, want)
	}
}

// writesNotRetained: scribbling over a slice after it was written, or
// after the commit, changes nothing that is read back.
func writesNotRetained(t *testing.T, s *contractStore) {
	want := map[string][]byte{"app": testBlob(300_001, 5), "parts": testBlob(5000, 6)}
	app := bytes.Clone(want["app"])
	parts := [][]byte{bytes.Clone(want["parts"][:1000]), bytes.Clone(want["parts"][1000:])}
	ck := s.begin(t, 1)
	put(t, ck, write{name: "app", data: app})
	scribble(app)
	put(t, ck, write{name: "parts", parts: parts})
	if err := ck.Commit(); err != nil {
		t.Fatal(err)
	}
	scribble(app)
	for _, p := range parts {
		scribble(p)
	}
	expectLine(t, s, s.rank, 1, want)
}

// readsAreViews: a store holding its lines in memory hands out the bytes it
// holds: two reads of a section share them, and a read allocates nothing.
func readsAreViews(t *testing.T, s *contractStore) {
	s.commit(t, 1, write{name: "app", data: testBlob(4096, 1)})
	snap, err := s.Open(s.rank, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	a, _ := snap.ReadSection("app")
	b, _ := snap.ReadSection("app")
	if &a[0] != &b[0] {
		t.Fatal("two reads of a section returned different bytes")
	}
	if allocs := testing.AllocsPerRun(10, func() { _, _ = snap.ReadSection("app") }); allocs != 0 {
		t.Fatalf("ReadSection allocates %v times", allocs)
	}
}

// countsBytesWritten: the store counts each section's bytes as it is written,
// through WriteSection and WriteParts alike.
func countsBytesWritten(t *testing.T, s *contractStore) {
	before := s.bytesWritten()
	ck := s.begin(t, 1)
	put(t, ck, write{name: "a", data: make([]byte, 10)}, write{name: "b", data: make([]byte, 20)})
	if got := s.bytesWritten() - before; got != 30 {
		t.Fatalf("counted %d bytes of sections, want 30", got)
	}
	put(t, ck, write{name: "c", parts: [][]byte{[]byte("ab"), nil, []byte("cde")}})
	if got := s.bytesWritten() - before; got != 35 {
		t.Fatalf("counted %d bytes after a parts write, want 35", got)
	}
	if err := ck.Commit(); err != nil {
		t.Fatal(err)
	}
}

// reportsStoredSize: a commit reports at least one copy of what it wrote.
func reportsStoredSize(t *testing.T, s *contractStore) {
	const n = 10_000
	ck := s.begin(t, 1)
	put(t, ck, write{name: "app", data: testBlob(n, 1)})
	if err := ck.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := ck.(StoredSizer).StoredSize(); got < n {
		t.Fatalf("StoredSize = %d, want at least the %d bytes written", got, n)
	}
}

// survivesOwnerLoss: the lines Retire and Truncate kept outlive the owner's
// memory (or a reopen of the directory) as written, a rewritten section's
// second content and the order of writes included, and the lines they
// dropped stay dropped.
func survivesOwnerLoss(t *testing.T, s *contractStore) {
	line := func(v int) map[string][]byte {
		return map[string][]byte{"app": testBlob(5000+v, byte(v)), "mpi": {byte(v)}, "late": {}}
	}
	for v := 1; v <= 4; v++ {
		want := line(v)
		s.commit(t, v, write{name: "mpi", data: want["mpi"]}, write{name: "app", data: testBlob(300, 9)},
			write{name: "late", data: want["late"]}, write{name: "app", data: want["app"]})
	}
	if err := s.Retire(s.rank, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Truncate(s.rank, 3); err != nil {
		t.Fatal(err)
	}
	st := s.lose()
	expectLast(t, st, s.rank, 3, true)
	expectLine(t, st, s.rank, 3, line(3))
	expectLine(t, st, s.rank, 2, line(2))
	expectGone(t, st, s.rank, 1)
	expectGone(t, st, s.rank, 4)
}
