package stable

import (
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"c3/internal/wire"
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

// TestCRCCombineMatchesChecksum: the digest a commit combines from its
// data shards' digests is the one crc32.Checksum computes over the whole
// blob — over random splits, with either half empty, and for every tail
// length from 0 to 63 — and crcZeros is a digest over appended zeros.
func TestCRCCombineMatchesChecksum(t *testing.T) {
	data := testBlob(1<<20+77, 13)
	rng := rand.New(rand.NewSource(5))
	check := func(n, at int) {
		a, b := data[:at], data[at:n]
		want := crc32.Checksum(data[:n], castagnoli)
		if got := crcCombine(crc32.Checksum(a, castagnoli), crc32.Checksum(b, castagnoli), len(b)); got != want {
			t.Fatalf("combine of a %d- and a %d-byte half = %#x, want %#x", len(a), len(b), got, want)
		}
	}
	for n := 0; n < 64; n++ {
		for at := 0; at <= n; at++ {
			check(n, at) // every tail length of every short blob, both halves empty in turn
		}
		check(len(data), len(data)-n)
	}
	for i := 0; i < 300; i++ {
		n := rng.Intn(len(data) + 1)
		check(n, rng.Intn(n+1))
		check(n, 0)
		check(n, n)
	}
	for _, n := range []int{0, 1, 7, 511, 512, 513, 5000} {
		blob := append(append([]byte(nil), data[:100]...), make([]byte, n)...)
		if got, want := crcZeros(crc32.Checksum(data[:100], castagnoli), n), crc32.Checksum(blob, castagnoli); got != want {
			t.Fatalf("crcZeros(%d) = %#x, want %#x", n, got, want)
		}
	}
}

// oldMarker is a marker as an older binary wrote it: the same layout, with
// a replication-codec geometry (dup, k=2, as every disk world stamped)
// where the current encoder writes zeros.
func oldMarker(format uint8, epoch uint64, s SectionMeta) []byte {
	w := wire.NewWriter(64)
	for _, b := range markerMagic {
		w.U8(b)
	}
	w.U8(format)
	w.U64(epoch)
	w.U8(0)
	w.Int(2)
	w.Int(0)
	w.U32(1)
	w.String(s.Name)
	w.Int(s.Bytes)
	w.U64(s.Sum)
	return w.Bytes()
}

// TestCommitMetaFormats: markers of format 2 (written now, and as older
// binaries wrote them with a codec geometry stamped) and format 1 (same
// layout, FNV-1a digests) all decode and report their format; any other
// format is an error, and so is a marker without the magic (the retired
// "ok\n" content).
func TestCommitMetaFormats(t *testing.T) {
	data := []byte("section bytes")
	meta := CommitMeta{MembershipEpoch: 7,
		Sections: []SectionMeta{{Name: "app", Bytes: len(data), Sum: SectionSum(data)}}}

	enc := encodeCommitMeta(meta)
	got, err := decodeCommitMeta(enc)
	if err != nil || got.Format != 2 || got.MembershipEpoch != 7 ||
		len(got.Sections) != 1 || got.Sections[0] != meta.Sections[0] {
		t.Fatalf("format 2 roundtrip: %+v, %v", got, err)
	}
	got, err = decodeCommitMeta(oldMarker(2, 7, meta.Sections[0]))
	if err != nil || got.Format != 2 || got.MembershipEpoch != 7 ||
		len(got.Sections) != 1 || got.Sections[0] != meta.Sections[0] {
		t.Fatalf("older binary's format 2 marker: %+v, %v", got, err)
	}

	v1 := oldMarker(1, 7, SectionMeta{Name: "app", Bytes: len(data), Sum: fnv1a(data)})
	got, err = decodeCommitMeta(v1)
	if err != nil || got.Format != 1 || got.Sections[0].Sum != fnv1a(data) {
		t.Fatalf("format 1 decode: %+v, %v", got, err)
	}

	v3 := append([]byte(nil), enc...)
	v3[len(markerMagic)] = 3
	if _, err := decodeCommitMeta(v3); err == nil {
		t.Fatal("format 3 marker accepted")
	}
	if _, err := decodeCommitMeta([]byte("ok\n")); err == nil {
		t.Fatal(`"ok\n" marker accepted`)
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
