package stable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"c3/internal/wire"
)

// CommitMeta is the structured content of a DiskStore commit marker: what
// produced the checkpoint (codec geometry, membership epoch at commit) and
// what it contains (per-section sizes and digests). The marker's presence
// is still what makes a version committed — LastCommitted and Open only
// stat the file — so the structured content is pure metadata: tooling
// (c3inspect) decodes it, and a marker from the pre-metadata era ("ok\n")
// stays a valid commit.
type CommitMeta struct {
	// Format is the marker format the record was decoded from. Format 1
	// stamped FNV-1a section digests; format 2 (current) stamps SectionSum,
	// so only format-2 digests can be re-verified.
	Format uint8
	// MembershipEpoch is the detector's membership epoch when the commit
	// was written (0 when the writer predates elastic membership or runs
	// without a detector).
	MembershipEpoch uint64
	// Codec, Data, Parity name the fragment-codec geometry the world's
	// replicated plane was configured with (CodecDup/CodecXOR/CodecRS and
	// k+m). The disk store itself stores whole sections; the geometry is
	// recorded so an operator inspecting a node's disk sees the same
	// configuration the diskless planes used.
	Codec        uint8
	Data, Parity int
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

// CodecName renders the marker's codec geometry for humans.
func (m CommitMeta) CodecName() string {
	switch m.Codec {
	case CodecDup:
		return fmt.Sprintf("dup(k=%d)", m.Data)
	case CodecXOR:
		return fmt.Sprintf("xor(k=%d,m=%d)", m.Data, m.Parity)
	case CodecRS:
		return fmt.Sprintf("rs(k=%d,m=%d)", m.Data, m.Parity)
	default:
		return fmt.Sprintf("codec(%d,k=%d,m=%d)", m.Codec, m.Data, m.Parity)
	}
}

// SectionSum is the digest stamped into SectionMeta entries (the
// replication plane's replSum: CRC-32C carried in a u64), exported so
// tooling (c3inspect) can re-verify stored bytes against a format-2 commit
// marker.
func SectionSum(b []byte) uint64 { return replSum(b) }

// Marker wire format: magic, format version, then the meta fields. The
// magic keeps the structured marker distinguishable from the legacy "ok\n"
// content without relying on length.
var markerMagic = []byte("C3MK")

// markerFormat is the format written. 2 differs from 1 only in the digest
// algorithm behind SectionMeta.Sum; the layout is the same, so both decode.
const markerFormat = 2

// maxMarkerSections clamps attacker- or corruption-supplied section counts
// before allocation, mirroring maxWireShards on the replication plane.
const maxMarkerSections = 4096

func encodeCommitMeta(m CommitMeta) []byte {
	w := wire.NewWriter(64 + 24*len(m.Sections))
	for _, b := range markerMagic {
		w.U8(b)
	}
	w.U8(markerFormat)
	w.U64(m.MembershipEpoch)
	w.U8(m.Codec)
	w.Int(m.Data)
	w.Int(m.Parity)
	w.U32(uint32(len(m.Sections)))
	for _, s := range m.Sections {
		w.String(s.Name)
		w.Int(s.Bytes)
		w.U64(s.Sum)
	}
	return w.Bytes()
}

// ErrLegacyMarker reports a commit marker from before the structured
// format: a valid commit, but with no metadata to decode.
var ErrLegacyMarker = errors.New("stable: pre-metadata commit marker")

func decodeCommitMeta(data []byte) (CommitMeta, error) {
	if len(data) < len(markerMagic) || string(data[:len(markerMagic)]) != string(markerMagic) {
		return CommitMeta{}, ErrLegacyMarker
	}
	r := wire.NewReader(data[len(markerMagic):])
	format := r.U8()
	if format != 1 && format != markerFormat {
		return CommitMeta{}, fmt.Errorf("stable: unknown marker format %d", format)
	}
	m := CommitMeta{
		Format:          format,
		MembershipEpoch: r.U64(),
		Codec:           r.U8(),
		Data:            r.Int(),
		Parity:          r.Int(),
	}
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

// SetMarkerInfo installs the metadata stamped into every subsequent commit
// marker: the replication codec geometry (fixed per run) and the current
// membership epoch (updated by the runtime on each epoch transition).
func (s *DiskStore) SetMarkerInfo(codec uint8, data, parity int) {
	s.metaMu.Lock()
	s.codec, s.data, s.parity = codec, data, parity
	s.metaMu.Unlock()
}

// SetEpoch updates the membership epoch recorded in subsequent markers.
func (s *DiskStore) SetEpoch(epoch uint64) {
	s.metaMu.Lock()
	s.epoch = epoch
	s.metaMu.Unlock()
}

// markerMeta snapshots the store-level marker fields for one commit.
func (s *DiskStore) markerMeta() CommitMeta {
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	return CommitMeta{MembershipEpoch: s.epoch, Codec: s.codec, Data: s.data, Parity: s.parity}
}

// Meta decodes the commit marker of (rank, version). ErrLegacyMarker means
// the version is committed but carries no structured metadata.
func (s *DiskStore) Meta(rank, version int) (CommitMeta, error) {
	data, err := os.ReadFile(filepath.Join(s.dir(rank, version), "COMMITTED"))
	if errors.Is(err, os.ErrNotExist) {
		return CommitMeta{}, fmt.Errorf("%w: rank %d version %d", ErrNotCommitted, rank, version)
	}
	if err != nil {
		return CommitMeta{}, err
	}
	return decodeCommitMeta(data)
}
