package stable

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// fnv1a is the digest format-1 markers carried (the pre-crc32c replSum),
// kept here so the tests can build a genuine format-1 marker.
func fnv1a(b []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	sum := uint64(offset)
	for _, c := range b {
		sum = (sum ^ uint64(c)) * prime
	}
	return sum
}

// TestDigestGoldenVector pins replSum/SectionSum to CRC-32C: the check
// value of the Castagnoli polynomial over "123456789".
func TestDigestGoldenVector(t *testing.T) {
	if got := SectionSum([]byte("123456789")); got != 0xE3069283 {
		t.Fatalf("SectionSum(123456789) = %#x, want 0xE3069283", got)
	}
	if replSum(nil) != 0 {
		t.Fatalf("replSum(nil) = %#x, want 0", replSum(nil))
	}
}

// TestCommitMetaFormats: markers of format 2 (written now) and format 1
// (same layout, FNV-1a digests) both decode and report their format; any
// other format is an error, and the legacy "ok\n" marker stays a valid,
// metadata-free commit.
func TestCommitMetaFormats(t *testing.T) {
	data := []byte("section bytes")
	meta := CommitMeta{MembershipEpoch: 7, Codec: CodecRS, Data: 4, Parity: 2,
		Sections: []SectionMeta{{Name: "app", Bytes: len(data), Sum: SectionSum(data)}}}

	enc := encodeCommitMeta(meta)
	got, err := decodeCommitMeta(enc)
	if err != nil || got.Format != 2 || got.MembershipEpoch != 7 || got.CodecName() != "rs(k=4,m=2)" ||
		len(got.Sections) != 1 || got.Sections[0] != meta.Sections[0] {
		t.Fatalf("format 2 roundtrip: %+v, %v", got, err)
	}

	meta.Sections[0].Sum = fnv1a(data)
	v1 := encodeCommitMeta(meta)
	v1[len(markerMagic)] = 1
	got, err = decodeCommitMeta(v1)
	if err != nil || got.Format != 1 || got.Sections[0].Sum != fnv1a(data) {
		t.Fatalf("format 1 decode: %+v, %v", got, err)
	}

	v3 := append([]byte(nil), enc...)
	v3[len(markerMagic)] = 3
	if _, err := decodeCommitMeta(v3); err == nil {
		t.Fatal("format 3 marker accepted")
	}
	if _, err := decodeCommitMeta([]byte("ok\n")); !errors.Is(err, ErrLegacyMarker) {
		t.Fatalf("legacy marker: %v", err)
	}
}

// TestDiskStoreMarkerDigests: a committed checkpoint's marker carries
// format 2 and a SectionSum that matches the bytes on disk.
func TestDiskStoreMarkerDigests(t *testing.T) {
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := testBlob(4097, 11)
	writeCommitted(t, store, 0, 1, map[string][]byte{"app": data})
	meta, err := store.Meta(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Format != markerFormat || len(meta.Sections) != 1 {
		t.Fatalf("marker %+v", meta)
	}
	onDisk, err := os.ReadFile(filepath.Join(store.dir(0, 1), sectionFile("app")))
	if err != nil {
		t.Fatal(err)
	}
	if s := meta.Sections[0]; s.Bytes != len(data) || s.Sum != SectionSum(onDisk) {
		t.Fatalf("section meta %+v does not match the %d bytes on disk", s, len(onDisk))
	}
}
