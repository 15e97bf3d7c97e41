package stable

import (
	"bytes"
	"net"
	"testing"
	"time"

	"c3/internal/trace"
	"c3/internal/transport"
	"c3/internal/transport/tcp"
)

// Tests for who owns which bytes on the diskless path: the codec's shards
// alias the blob Commit built, a stored fragment is a sub-slice of the one
// payload (or TCP frame) that carried it, and nothing a caller can reach
// afterwards is shared with what the stores keep.

// tcpDistWorld builds n DistStores, each on its own loopback tcp.Mesh: the
// real multi-process wiring inside one test process.
func tcpDistWorld(t testing.TB, n int, opts ...DistOption) []*DistStore {
	t.Helper()
	return tcpStores(t, tcpMeshes(t, n), nil, opts...)
}

// tcpMeshes brings up n loopback meshes, closed when the test ends.
func tcpMeshes(t testing.TB, n int) []*tcp.Mesh {
	t.Helper()
	var meshes []*tcp.Mesh
	for try := 0; ; try++ {
		// Bind-release-rebind: a port can be taken in between; start over.
		addrs := make([]string, n)
		for i := range addrs {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addrs[i] = ln.Addr().String()
			_ = ln.Close()
		}
		var err error
		meshes = meshes[:0]
		for r := 0; r < n && err == nil; r++ {
			var m *tcp.Mesh
			if m, err = tcp.New(r, addrs); err == nil {
				meshes = append(meshes, m)
			}
		}
		if err == nil {
			break
		}
		for _, m := range meshes {
			m.Close()
		}
		if try == 2 {
			t.Fatalf("tcp meshes: %v", err)
		}
	}
	t.Cleanup(func() {
		for _, m := range meshes {
			m.Close()
		}
	})
	return meshes
}

// tcpStores puts one DistStore on each mesh, closed when the test ends
// (before the meshes); a non-nil wrap chooses the interconnect of rank r.
func tcpStores(t testing.TB, meshes []*tcp.Mesh, wrap func(r int, m *tcp.Mesh) transport.Interconnect, opts ...DistOption) []*DistStore {
	stores := make([]*DistStore, len(meshes))
	for r, m := range meshes {
		var net transport.Interconnect = m
		if wrap != nil {
			net = wrap(r, m)
		}
		stores[r] = NewDistStore(r, len(meshes), net, opts...)
	}
	t.Cleanup(func() {
		for _, s := range stores {
			s.Close()
		}
	})
	return stores
}

func scribble(b []byte) {
	for i := range b {
		b[i] ^= 0xa5
	}
}

func readApp(t *testing.T, s Store, rank, version int) []byte {
	t.Helper()
	snap, err := s.Open(rank, version)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer snap.Close()
	got, err := snap.ReadSection("app")
	if err != nil {
		t.Fatalf("ReadSection: %v", err)
	}
	return got
}

// TestCommittedBytesAreNotShared: after Commit returns, scribbling over the
// slice that was passed to WriteSection, over the blob the codec's shards
// aliased (its spare capacity included, where a padded tail shard may
// lie), and over what ReadSection returned changes nothing a later Open
// yields — on every diskless store and wiring, the in-memory interconnect
// (which passes payloads by reference) included.
func TestCommittedBytesAreNotShared(t *testing.T) {
	const n, owner = 8, 1
	worlds := map[string]func(t *testing.T, codec Codec) (store Store, forget func()){
		"replicated": func(t *testing.T, codec Codec) (Store, func()) {
			s := NewReplicatedStore(n, WithDistCodec(codec))
			t.Cleanup(s.Close)
			return s, func() { s.FailNode(owner) }
		},
		"dist-memory": func(t *testing.T, codec Codec) (Store, func()) {
			s := distWorld(t, n, WithDistCodec(codec))[owner]
			return s, func() { s.mu.Lock(); s.node.local = make(map[int]*memCkpt); s.mu.Unlock() }
		},
		"dist-tcp": func(t *testing.T, codec Codec) (Store, func()) {
			s := tcpDistWorld(t, n, WithDistCodec(codec))[owner]
			return s, func() { s.mu.Lock(); s.node.local = make(map[int]*memCkpt); s.mu.Unlock() }
		},
	}
	for name, build := range worlds {
		for _, spec := range []struct {
			codec string
			k, m  int
		}{{"rs", 4, 2}, {"xor", 4, 1}, {"dup", 2, 0}} {
			t.Run(name+"/"+spec.codec, func(t *testing.T) {
				store, forget := build(t, mustCodec(t, spec.codec, spec.k, spec.m))
				want := testBlob(300_001, 5)
				data := append([]byte(nil), want...)
				ck, err := store.Begin(owner, 1)
				if err != nil {
					t.Fatal(err)
				}
				if err := ck.WriteSection("app", data); err != nil {
					t.Fatal(err)
				}
				blob := ck.(*distHandle).blob.Bytes()
				if err := ck.Commit(); err != nil {
					t.Fatal(err)
				}
				scribble(data)
				scribble(blob[:cap(blob)])
				// Drop the owner's memory, so Open must reassemble from what the
				// holders stored.
				forget()
				got := readApp(t, store, owner, 1)
				if !bytes.Equal(got, want) {
					t.Fatal("scribbling over caller-visible buffers after Commit changed the stored line")
				}
				scribble(got)
				forget()
				if !bytes.Equal(readApp(t, store, owner, 1), want) {
					t.Fatal("scribbling over a ReadSection result changed the stored line")
				}
			})
		}
	}
}

// TestFragmentPayloadOwnsItsBytes: a fragment payload carries a view of
// its shard, not a copy — the TCP mesh writes it from where it lies — and
// what a holder decodes from it, off a socket or as the in-memory
// receiver's own copy, is a view of exactly that payload's bytes, so what
// a holder stores never aliases the owner's blob.
func TestFragmentPayloadOwnsItsBytes(t *testing.T) {
	blob := testBlob(4096+3, 9)
	shards, err := mustCodec(t, "rs", 4, 2).Encode(blob)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(shards))
	frags := make([][]byte, len(shards))
	for idx, s := range shards {
		want[idx] = append([]byte(nil), s...)
		payload := encodeReplFrag(1, 1, idx, s)
		if head, body := payload.WireParts(); len(head) != replFragHeader || &body[0] != &s[0] || len(body) != len(s) {
			t.Fatalf("fragment %d: payload is not the header and a view of the shard", idx)
		}
		if _, _, gotIdx, frag, err := decodeReplFrag(payload.MarshalWire()); err != nil || gotIdx != idx {
			t.Fatalf("fragment %d roundtrip: idx %d, %v", idx, gotIdx, err)
		} else {
			frags[idx] = frag
		}
		if cap(frags[idx]) != len(frags[idx]) {
			t.Fatalf("fragment %d: cap %d > len %d — an append could reach past it", idx, cap(frags[idx]), len(frags[idx]))
		}
	}
	scribble(blob[:cap(blob)])
	for idx := range frags {
		if !bytes.Equal(frags[idx], want[idx]) {
			t.Fatalf("fragment %d changed when the owner's blob did: it aliases the blob", idx)
		}
	}
}

// TestInMemoryStoredFragmentsOwnTheirBytes: the in-memory interconnect
// hands the holders the owner's views, and each holder's daemon copies
// what it stores — scribbling over the owner's whole blob after Commit,
// spare capacity included, changes no stored fragment, the ones for the
// cross-group unit included.
func TestInMemoryStoredFragmentsOwnTheirBytes(t *testing.T) {
	const n, owner = 8, 2
	stores := distWorld(t, n, WithDistCodec(mustCodec(t, "rs", 4, 2)), WithDistGroupSize(4))
	data := testBlob(1<<20+11, 3)
	ck, err := stores[owner].Begin(owner, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.WriteSection("app", data); err != nil {
		t.Fatal(err)
	}
	blob := ck.(*distHandle).blob.Bytes()
	if err := ck.Commit(); err != nil {
		t.Fatal(err)
	}
	units, err := mustCodec(t, "rs", 4, 2).Encode(append([]byte(nil), blob...))
	if err != nil {
		t.Fatal(err)
	}
	units = append(units, append([]byte(nil), blob...))
	scribble(blob[:cap(blob)])
	held := 0
	for _, s := range stores {
		s.mu.Lock()
		for key, frag := range s.node.frags {
			held++
			if !bytes.Equal(frag, units[key.idx]) {
				t.Errorf("holder %d: fragment %d changed with the owner's blob", s.self, key.idx)
			}
		}
		s.mu.Unlock()
	}
	if held != len(units) {
		t.Fatalf("%d fragments held, want %d", held, len(units))
	}
}

// TestStoredFragmentPinsOnlyItsFrame: over TCP a daemon stores the
// sub-slice of the frame body the mesh allocated for that one frame — no
// spare capacity beyond a frame header's worth, so nothing larger than its
// own frame stays reachable through it.
func TestStoredFragmentPinsOnlyItsFrame(t *testing.T) {
	const frameHeader = 34 // tcp's frameHeaderLen
	stores := tcpDistWorld(t, 8, WithDistCodec(mustCodec(t, "rs", 4, 2)))
	writeDistCommitted(t, stores[0], 0, 1, map[string][]byte{"app": testBlob(1<<20+11, 4)})
	held := 0
	for _, s := range stores[1:] {
		s.mu.Lock()
		for key, frag := range s.node.frags {
			held++
			if slack := cap(frag) - len(frag); slack > frameHeader {
				t.Errorf("fragment %+v: cap-len = %d, so it is not the tail of a frame of its own", key, slack)
			}
		}
		s.mu.Unlock()
	}
	if held != 6 {
		t.Fatalf("%d fragments held, want 6", held)
	}
}

// TestFlippedBitRejectedAndDecodedAround: one flipped bit in each of the
// k+m stored shards in turn fails shardValid, and Open still returns the
// line by decoding around the rejected shard.
func TestFlippedBitRejectedAndDecodedAround(t *testing.T) {
	const n, owner, k, m = 8, 0, 4, 2
	want := testBlob(200_003, 6)
	key := func(idx int) replFragKey { return replFragKey{owner: owner, version: 1, idx: idx} }

	worlds := map[string]func(t *testing.T) []*DistStore{
		"replicated": func(t *testing.T) []*DistStore { return distWorld(t, n, WithDistCodec(mustCodec(t, "rs", k, m))) },
		"dist-tcp":   func(t *testing.T) []*DistStore { return tcpDistWorld(t, n, WithDistCodec(mustCodec(t, "rs", k, m))) },
	}
	for name, build := range worlds {
		t.Run(name, func(t *testing.T) {
			stores := build(t)
			writeDistCommitted(t, stores[owner], owner, 1, map[string][]byte{"app": want})
			for idx := 0; idx < k+m; idx++ {
				var holder *DistStore
				var frag []byte
				for _, s := range stores {
					s.mu.Lock()
					if f, ok := s.node.frags[key(idx)]; ok {
						holder, frag = s, f
					}
					s.mu.Unlock()
				}
				if holder == nil {
					t.Fatalf("shard %d not stored", idx)
				}
				holder.mu.Lock()
				rec := holder.node.commits[replCommitKey{owner: owner, version: 1}]
				frag[len(frag)/2] ^= 0x04
				rejected := !rec.shardValid(idx, frag)
				holder.mu.Unlock()
				if !rejected {
					t.Fatalf("shard %d with a flipped bit passed shardValid", idx)
				}
				if !bytes.Equal(readApp(t, stores[owner], owner, 1), want) {
					t.Fatalf("Open with shard %d corrupt returned other bytes", idx)
				}
				holder.mu.Lock()
				frag[len(frag)/2] ^= 0x04
				holder.mu.Unlock()
				stores[owner].mu.Lock()
				delete(stores[owner].node.local, 1) // the next round must reassemble again
				stores[owner].mu.Unlock()
			}
			if got := stores[owner].Reassemblies(); got != k+m {
				t.Fatalf("%d reassemblies, want %d", got, k+m)
			}
		})
	}
}

// TestCommitSpansTileTheCommit: encode, ship and ack are the commit's only
// stages, so their spans must cover the time Commit took (encode and ship
// overlap, so they may add up to more). A stage that reads the checkpoint
// bytes outside every span (the digests once did) shows up here as a hole.
func TestCommitSpansTileTheCommit(t *testing.T) {
	stores := distWorld(t, 8, WithDistCodec(mustCodec(t, "rs", 4, 2)))
	data := testBlob(8<<20, 8)
	kinds := []trace.Kind{trace.KindEncode, trace.KindShip, trace.KindAck}
	spanSum := func() (sum int64) {
		for _, k := range kinds {
			sum += trace.Default().Histogram(k).Sum
		}
		return sum
	}
	best := 1.0
	// Anything else the machine does during a commit only widens the hole;
	// the tightest of a few commits is the code's own.
	for version := 1; version <= 4 && best > 0.05; version++ {
		ck, err := stores[0].Begin(0, version)
		if err != nil {
			t.Fatal(err)
		}
		if err := ck.WriteSection("app", data); err != nil {
			t.Fatal(err)
		}
		before, begin := spanSum(), time.Now()
		if err := ck.Commit(); err != nil {
			t.Fatal(err)
		}
		commit := time.Since(begin).Nanoseconds()
		hole := 1 - float64(spanSum()-before)/float64(commit)
		t.Logf("commit %d: %.2f ms, outside encode+ship+ack: %.1f%%", version, float64(commit)/1e6, 100*hole)
		best = min(best, hole)
	}
	if best > 0.05 {
		t.Fatalf("%.1f%% of the commit lies outside its encode, ship and ack spans (limit 5%%)", 100*best)
	}
}
