package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"c3/internal/stable"
)

// writeCheckpoint commits one checkpoint and returns its directory.
func writeCheckpoint(t *testing.T, store *stable.DiskStore, root string, data []byte) string {
	t.Helper()
	ck, err := store.Begin(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.WriteSection("app", data); err != nil {
		t.Fatal(err)
	}
	if err := ck.Commit(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(root, "rank0000", "v00000001")
}

// TestInspectVerifiesByMarkerFormat: format-2 digests are verified (and a
// flipped bit on disk is caught); a format-1 directory, whose digests are
// FNV-1a values this build no longer computes, is reported as not verified
// rather than as a false mismatch.
func TestInspectVerifiesByMarkerFormat(t *testing.T) {
	root := t.TempDir()
	store, err := stable.NewDiskStore(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := writeCheckpoint(t, store, root, []byte("the application state"))

	var out bytes.Buffer
	if err := inspect(&out, store, 0, 1); err != nil {
		t.Fatalf("format 2: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "marker format 2") || !strings.Contains(out.String(), "crc32c") || !strings.Contains(out.String(), " ok") {
		t.Fatalf("format 2 output lacks the verified digest:\n%s", out.String())
	}

	// Rewrite the marker as format 1 with a digest SectionSum cannot match.
	markerPath := filepath.Join(dir, "COMMITTED")
	marker, err := os.ReadFile(markerPath)
	if err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte(nil), marker...)
	v1[4] = 1             // the format byte follows the 4-byte magic
	v1[len(v1)-1] ^= 0xff // the last section's digest ends the record
	if err := os.WriteFile(markerPath, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := inspect(&out, store, 0, 1); err != nil {
		t.Fatalf("format 1: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "format 1 (FNV-1a) digest not verified") || strings.Contains(out.String(), "MISMATCH") {
		t.Fatalf("format 1 output:\n%s", out.String())
	}

	// Back to format 2, with one bit of the section flipped on disk.
	if err := os.WriteFile(markerPath, marker, 0o644); err != nil {
		t.Fatal(err)
	}
	section := filepath.Join(dir, "s_app.bin")
	data, err := os.ReadFile(section)
	if err != nil {
		t.Fatal(err)
	}
	data[3] ^= 0x10
	if err := os.WriteFile(section, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := inspect(&out, store, 0, 1); err == nil || !strings.Contains(out.String(), "DIGEST MISMATCH") {
		t.Fatalf("flipped bit not reported (err %v):\n%s", err, out.String())
	}
}

// TestInspectListsMarkerNames: a section whose name is not path-safe is
// listed and verified under the name it was written with, and a recorded
// section whose file is gone is reported MISSING.
func TestInspectListsMarkerNames(t *testing.T) {
	root := t.TempDir()
	store, err := stable.NewDiskStore(root)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := store.Begin(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"app", "user state"} {
		if err := ck.WriteSection(name, []byte("contents of "+name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Commit(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := inspect(&out, store, 0, 1); err != nil {
		t.Fatalf("intact line: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "user state") || strings.Count(out.String(), " ok\n") != 2 {
		t.Fatalf("intact line: want both sections verified by name:\n%s", out.String())
	}

	if err := os.Remove(filepath.Join(root, "rank0000", "v00000001", "s_user_state.bin")); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err = inspect(&out, store, 0, 1)
	if err == nil || !strings.Contains(out.String(), `MISSING: marker records section "user state"`) {
		t.Fatalf("deleted section file not reported (err %v):\n%s", err, out.String())
	}
}
