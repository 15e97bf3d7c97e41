package stable

import (
	"testing"
)

// storesUnderTest builds each Store implementation that holds data.
func storesUnderTest(t *testing.T) map[string]Store {
	t.Helper()
	disk, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{
		"mem":  NewMemStore(),
		"disk": disk,
	}
}

func TestCommitVisibility(t *testing.T) {
	for name, store := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			ck, err := store.Begin(3, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := ck.WriteSection("app", []byte("state-v1")); err != nil {
				t.Fatal(err)
			}
			// Uncommitted checkpoints are invisible.
			if _, ok, _ := store.LastCommitted(3); ok {
				t.Fatal("uncommitted checkpoint visible")
			}
			if _, err := store.Open(3, 1); err == nil {
				t.Fatal("open of uncommitted checkpoint succeeded")
			}
			if err := ck.Commit(); err != nil {
				t.Fatal(err)
			}
			v, ok, err := store.LastCommitted(3)
			if err != nil || !ok || v != 1 {
				t.Fatalf("committed = (%d,%v,%v)", v, ok, err)
			}
			snap, err := store.Open(3, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Close()
			data, err := snap.ReadSection("app")
			if err != nil || string(data) != "state-v1" {
				t.Fatalf("read = %q, %v", data, err)
			}
			names, err := snap.Sections()
			if err != nil || len(names) != 1 || names[0] != "app" {
				t.Fatalf("sections = %v, %v", names, err)
			}
		})
	}
}

func TestLastCommittedPicksNewest(t *testing.T) {
	for name, store := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			for v := 1; v <= 3; v++ {
				ck, _ := store.Begin(0, v)
				_ = ck.WriteSection("s", []byte{byte(v)})
				if err := ck.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			// An uncommitted newer version must not win.
			ck, _ := store.Begin(0, 4)
			_ = ck.WriteSection("s", []byte{4})
			v, ok, err := store.LastCommitted(0)
			if err != nil || !ok || v != 3 {
				t.Fatalf("last = (%d,%v,%v)", v, ok, err)
			}
			_ = ck.Abort()
		})
	}
}

func TestRetire(t *testing.T) {
	for name, store := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			for v := 1; v <= 3; v++ {
				ck, _ := store.Begin(0, v)
				_ = ck.WriteSection("s", []byte{byte(v)})
				_ = ck.Commit()
			}
			if err := store.Retire(0, 3); err != nil {
				t.Fatal(err)
			}
			if _, err := store.Open(0, 2); err == nil {
				t.Fatal("retired version still opens")
			}
			if _, err := store.Open(0, 3); err != nil {
				t.Fatalf("kept version lost: %v", err)
			}
		})
	}
}

func TestBeginClearsStale(t *testing.T) {
	for name, store := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			ck, _ := store.Begin(1, 7)
			_ = ck.WriteSection("old", []byte("junk"))
			// Large enough that the disk handle's syncs may still be in
			// flight when the handle is abandoned.
			_ = ck.WriteSection("app", testBlob(1<<20, 1))
			// A crashed process never commits or aborts; a later attempt
			// re-begins the same version.
			ck2, err := store.Begin(1, 7)
			if err != nil {
				t.Fatal(err)
			}
			_ = ck2.WriteSection("app", []byte("fresh"))
			if err := ck2.Commit(); err != nil {
				t.Fatal(err)
			}
			snap, err := store.Open(1, 7)
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Close()
			if _, err := snap.ReadSection("old"); err == nil {
				t.Fatal("stale section survived Begin")
			}
			if names, err := snap.Sections(); err != nil || len(names) != 1 || names[0] != "app" {
				t.Fatalf("sections = %v, %v; want only app", names, err)
			}
			if data, err := snap.ReadSection("app"); err != nil || string(data) != "fresh" {
				t.Fatalf("app = %.16q, %v; want the new handle's contents", data, err)
			}
		})
	}
}

func TestNullStoreCountsAndForgets(t *testing.T) {
	s := NewNullStore()
	ck, _ := s.Begin(0, 1)
	_ = ck.WriteSection("app", make([]byte, 1000))
	_ = ck.Commit()
	if s.BytesWritten() != 1000 {
		t.Fatalf("bytes %d", s.BytesWritten())
	}
	if _, ok, _ := s.LastCommitted(0); ok {
		t.Fatal("null store admits to having data")
	}
	if _, err := s.Open(0, 1); err == nil {
		t.Fatal("null store opened a checkpoint")
	}
}

func TestMemStoreBytesWritten(t *testing.T) {
	s := NewMemStore()
	ck, _ := s.Begin(0, 1)
	_ = ck.WriteSection("a", make([]byte, 10))
	_ = ck.WriteSection("b", make([]byte, 20))
	if s.BytesWritten() != 30 {
		t.Fatalf("bytes %d", s.BytesWritten())
	}
}

func TestGlobalLine(t *testing.T) {
	if v, ok := GlobalLine([]int{3, 5, 4}, []bool{true, true, true}); !ok || v != 3 {
		t.Fatalf("line = %d, %v", v, ok)
	}
	if _, ok := GlobalLine([]int{3, 5}, []bool{true, false}); ok {
		t.Fatal("missing rank should yield no line")
	}
}

func TestDiskSectionNameSanitization(t *testing.T) {
	disk, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ck, _ := disk.Begin(0, 1)
	if err := ck.WriteSection("../../evil name", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := ck.Commit(); err != nil {
		t.Fatal(err)
	}
	snap, err := disk.Open(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if _, err := snap.ReadSection("../../evil name"); err != nil {
		t.Fatalf("sanitized section not readable back: %v", err)
	}
}
