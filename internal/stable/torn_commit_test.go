package stable

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestDiskStoreTornCommit kills the commit at every stage boundary and
// asserts the store's core durability invariant: LastCommitted never names
// a version whose data could be partial. A version becomes visible only
// through the final COMMITTED rename, which happens after every section
// file and the directory itself are fsynced. The "section-sync" stage fails
// a section's background fsync: Commit must report it and write no marker.
func TestDiskStoreTornCommit(t *testing.T) {
	for _, stage := range []string{"section-sync", "marker-write", "marker-rename", "dir-sync"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			s, err := NewDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}

			// Version 1 commits cleanly: the recovery floor.
			ck, err := s.Begin(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := ck.WriteSection("app", []byte("line-1")); err != nil {
				t.Fatal(err)
			}
			if err := ck.Commit(); err != nil {
				t.Fatal(err)
			}

			// Version 2 dies mid-commit at the stage under test. The
			// crashpoint is armed before Begin, which hands it to the
			// handle.
			diskCrashpoint = func(st string) bool { return st == stage }
			defer func() { diskCrashpoint = nil }()
			ck2, err := s.Begin(0, 2)
			if err != nil {
				t.Fatal(err)
			}
			// Two sections, so two background syncs fail at "section-sync".
			for _, name := range []string{"app", "mpi"} {
				if err := ck2.WriteSection(name, []byte("line-2")); err != nil {
					t.Fatal(err)
				}
			}
			err = ck2.Commit()

			// The "machine reboots": a fresh store over the same directory.
			s2, err2 := NewDiskStore(dir)
			if err2 != nil {
				t.Fatal(err2)
			}
			last, ok, err3 := s2.LastCommitted(0)
			if err3 != nil {
				t.Fatal(err3)
			}
			switch stage {
			case "section-sync", "marker-write", "marker-rename":
				// The crash hit before the marker rename: version 2 must be
				// invisible, version 1 still the recovery line.
				if err == nil {
					t.Fatalf("commit reported success despite dying at %s", stage)
				}
				if !ok || last != 1 {
					t.Fatalf("LastCommitted = %d,%v after torn commit; want 1,true", last, ok)
				}
				if _, err := s2.Open(0, 2); err == nil {
					t.Fatal("torn version 2 opened successfully")
				}
			case "dir-sync":
				// The rename happened; only its durability sync was cut
				// short. Whichever way the namespace landed, the visible
				// version must be completely written.
				if !ok {
					t.Fatal("no committed version after rename-stage crash")
				}
				snap, err := s2.Open(0, last)
				if err != nil {
					t.Fatalf("Open(%d): %v", last, err)
				}
				want := "line-1"
				if last == 2 {
					want = "line-2"
				}
				data, err := snap.ReadSection("app")
				if err != nil || string(data) != want {
					t.Fatalf("version %d content = %q, %v; want %q", last, data, err, want)
				}
				snap.Close()
			}
		})
	}
}

// TestDiskStoreStaleCommittingMarker models the exact on-disk state a
// crash between marker write and rename leaves behind (a ".committing"
// file): the version must stay invisible and a later Begin must be able to
// rewrite it.
func TestDiskStoreStaleCommittingMarker(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := s.Begin(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.WriteSection("app", []byte("partial")); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash artifact directly.
	vdir := filepath.Join(dir, "rank0003", "v00000007")
	if err := os.WriteFile(filepath.Join(vdir, ".committing"), []byte("ok\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok, _ := s.LastCommitted(3); ok {
		t.Fatal("stale .committing marker made the version visible")
	}
	if _, err := s.Open(3, 7); err == nil {
		t.Fatal("Open succeeded on an uncommitted version")
	}

	// The re-execution rewrites the same version from scratch and commits.
	ck2, err := s.Begin(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck2.WriteSection("app", []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	if err := ck2.Commit(); err != nil {
		t.Fatal(err)
	}
	last, ok, err := s.LastCommitted(3)
	if err != nil || !ok || last != 7 {
		t.Fatalf("LastCommitted = %d,%v,%v; want 7,true,nil", last, ok, err)
	}
	snap, err := s.Open(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if data, _ := snap.ReadSection("app"); string(data) != "rewritten" {
		t.Fatalf("content = %q after rewrite", data)
	}
}

// TestDiskCommitJoinsBackgroundSyncs holds a section's background fsync
// open and checks that neither Commit nor Abort returns (or, for Abort,
// removes the directory) before it finishes: no goroutine a handle starts
// outlives the handle.
func TestDiskCommitJoinsBackgroundSyncs(t *testing.T) {
	for _, finish := range []string{"commit", "abort"} {
		t.Run(finish, func(t *testing.T) {
			s, err := NewDiskStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			entered, release := make(chan struct{}, 1), make(chan struct{})
			diskCrashpoint = func(st string) bool {
				if st == "section-sync" {
					entered <- struct{}{}
					<-release
				}
				return false
			}
			defer func() { diskCrashpoint = nil }()
			ck, err := s.Begin(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := ck.WriteSection("app", []byte("held")); err != nil {
				t.Fatal(err)
			}
			<-entered
			done := make(chan error, 1)
			go func() {
				if finish == "commit" {
					done <- ck.Commit()
				} else {
					done <- ck.Abort()
				}
			}()
			select {
			case err := <-done:
				t.Fatalf("%s returned (%v) while a section sync was in flight", finish, err)
			case <-time.After(50 * time.Millisecond):
			}
			if _, err := os.Stat(s.dir(0, 1)); err != nil {
				t.Fatalf("version directory gone before the sync finished: %v", err)
			}
			close(release)
			if err := <-done; err != nil {
				t.Fatalf("%s: %v", finish, err)
			}
			_, ok, err := s.LastCommitted(0)
			if err != nil || ok != (finish == "commit") {
				t.Fatalf("LastCommitted ok=%v, err %v after %s", ok, err, finish)
			}
		})
	}
}

// TestDiskSectionRewrittenInOneHandle: the marker lists a section written
// twice once, with the second contents' digest.
func TestDiskSectionRewrittenInOneHandle(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first, second := testBlob(1<<20, 1), testBlob(4096, 2)
	ck, err := s.Begin(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		name string
		data []byte
	}{{"app", first}, {"mpi", []byte("mpi")}, {"app", second}} {
		if err := ck.WriteSection(w.name, w.data); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Commit(); err != nil {
		t.Fatal(err)
	}
	meta, err := s.Meta(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.Sections) != 2 || meta.Sections[0].Name != "app" || meta.Sections[1].Name != "mpi" {
		t.Fatalf("marker sections %+v; want app, mpi once each", meta.Sections)
	}
	if a := meta.Sections[0]; a.Bytes != len(second) || a.Sum != SectionSum(second) {
		t.Fatalf("marker records %+v for app; want the second write's %d bytes", a, len(second))
	}
}

// TestDiskSectionFileCollision: two section names that sanitize to the
// same file are refused, not silently stored over each other.
func TestDiskSectionFileCollision(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ck, err := s.Begin(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.WriteSection("a.b", []byte("dot")); err != nil {
		t.Fatal(err)
	}
	if err := ck.WriteSection("a_b", []byte("underscore")); err == nil {
		t.Fatal(`"a_b" accepted though "a.b" already maps to its file`)
	}
	if err := ck.Commit(); err != nil {
		t.Fatal(err)
	}
	meta, err := s.Meta(0, 1)
	if err != nil || len(meta.Sections) != 1 || meta.Sections[0].Name != "a.b" {
		t.Fatalf("marker %+v, %v; want only a.b", meta, err)
	}
	snap, err := s.Open(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if data, err := snap.ReadSection("a.b"); err != nil || string(data) != "dot" {
		t.Fatalf("a.b = %q, %v; want the first write", data, err)
	}
}
