package stable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"c3/internal/wire"
)

// CommitMeta is the structured content of a DiskStore commit marker: when
// the checkpoint was taken (membership epoch at commit) and what it
// contains (per-section sizes and digests). The marker's presence
// is still what makes a version committed — LastCommitted and Open only
// stat the file — so the structured content is pure metadata that tooling
// (c3inspect) decodes.
type CommitMeta struct {
	// Format is the marker format the record was decoded from. Format 1
	// stamped FNV-1a section digests; format 2 (current) stamps SectionSum,
	// so only format-2 digests can be re-verified.
	Format uint8
	// MembershipEpoch is the membership epoch recorded with the commit.
	// DiskStore writes 0: elastic membership runs only over the diskless
	// store.
	MembershipEpoch uint64
	// Sections lists each stored section with its byte size and digest
	// (SectionSum under format 2), in the order written.
	Sections []SectionMeta
}

// SectionMeta describes one committed section.
type SectionMeta struct {
	Name  string
	Bytes int
	Sum   uint64
}

// SectionSum is the digest stamped into SectionMeta entries (the
// replication plane's replSum: CRC-32C carried in a u64), exported so
// tooling (c3inspect) can re-verify stored bytes against a format-2 commit
// marker.
func SectionSum(b []byte) uint64 { return replSum(b) }

// Marker wire format: magic, format version, then the meta fields. Three
// fields after the membership epoch (a u8 and two ints) once stamped a
// replication-codec geometry a disk world does not have; they are written
// as zero and skipped on read, so the layout — and every marker an older
// binary wrote — stays readable.
var markerMagic = []byte("C3MK")

// markerFormat is the format written. 2 differs from 1 only in the digest
// algorithm behind SectionMeta.Sum; the layout is the same, so both decode.
const markerFormat = 2

// maxMarkerSections clamps attacker- or corruption-supplied section counts
// before allocation, as sane() bounds a replication marker.
const maxMarkerSections = 4096

func encodeCommitMeta(m CommitMeta) []byte {
	w := wire.NewWriter(64 + 24*len(m.Sections))
	for _, b := range markerMagic {
		w.U8(b)
	}
	w.U8(markerFormat)
	w.U64(m.MembershipEpoch)
	w.U8(0)
	w.Int(0)
	w.Int(0)
	w.U32(uint32(len(m.Sections)))
	for _, s := range m.Sections {
		w.String(s.Name)
		w.Int(s.Bytes)
		w.U64(s.Sum)
	}
	return w.Bytes()
}

func decodeCommitMeta(data []byte) (CommitMeta, error) {
	if len(data) < len(markerMagic) || string(data[:len(markerMagic)]) != string(markerMagic) {
		return CommitMeta{}, fmt.Errorf("stable: commit marker lacks the %s magic", markerMagic)
	}
	r := wire.NewReader(data[len(markerMagic):])
	format := r.U8()
	if format != 1 && format != markerFormat {
		return CommitMeta{}, fmt.Errorf("stable: unknown marker format %d", format)
	}
	m := CommitMeta{Format: format, MembershipEpoch: r.U64()}
	r.U8()
	r.Int()
	r.Int()
	// Each section occupies at least 20 bytes (name length prefix + size +
	// digest), so Count rejects counts the input cannot possibly back.
	n := r.Count(20)
	if n > maxMarkerSections {
		return CommitMeta{}, fmt.Errorf("stable: insane marker section count %d", n)
	}
	for i := 0; i < n; i++ {
		m.Sections = append(m.Sections, SectionMeta{
			Name:  r.String(),
			Bytes: r.Int(),
			Sum:   r.U64(),
		})
	}
	if err := r.Err(); err != nil {
		return CommitMeta{}, fmt.Errorf("stable: corrupt commit marker: %w", err)
	}
	return m, nil
}

// Meta decodes the commit marker of (rank, version).
func (s *DiskStore) Meta(rank, version int) (CommitMeta, error) {
	m, err := readMarker(s.dir(rank, version))
	if errors.Is(err, os.ErrNotExist) {
		return CommitMeta{}, fmt.Errorf("%w: rank %d version %d", ErrNotFound, rank, version)
	}
	return m, err
}

// readMarker decodes the commit marker of a version directory.
func readMarker(dir string) (CommitMeta, error) {
	data, err := os.ReadFile(filepath.Join(dir, "COMMITTED"))
	if err != nil {
		return CommitMeta{}, err
	}
	return decodeCommitMeta(data)
}
