package stable

import (
	"fmt"
	"testing"

	"c3/internal/transport"
)

// Layer micro-benchmarks for the stages a diskless checkpoint byte passes
// through inside this package: digest, parity encode, repair decode. Each
// reports ns/op, MB/s and allocs/op; CHANGES.md quotes them before/after.

var benchSink any

func sizeName(n int) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%dMiB", n>>20)
	}
	return fmt.Sprintf("%dKiB", n>>10)
}

func BenchmarkDigest(b *testing.B) {
	for _, n := range []int{1 << 10, 2 << 20, 8 << 20} {
		blob := testBlob(n, 1)
		b.Run(sizeName(n), func(b *testing.B) {
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = replSum(blob)
			}
		})
	}
}

func benchEncode(b *testing.B, name string, k, m int, sizes ...int) {
	codec, err := NewCodec(name, k, m)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range sizes {
		blob := testBlob(n, 2)
		b.Run(sizeName(n), func(b *testing.B) {
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				shards, err := codec.Encode(blob)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = shards
			}
		})
	}
}

func BenchmarkRSEncode(b *testing.B)  { benchEncode(b, "rs", 4, 2, 1<<20, 8<<20) }
func BenchmarkXOREncode(b *testing.B) { benchEncode(b, "xor", 4, 0, 8<<20) }
func BenchmarkDupEncode(b *testing.B) { benchEncode(b, "dup", 2, 0, 8<<20) }

// BenchmarkRSDecodeRepair decodes an rs 4+2 line with two data shards
// missing: the worst case the parity budget covers.
func BenchmarkRSDecodeRepair(b *testing.B) {
	const n = 8 << 20
	codec, err := NewCodec("rs", 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	shards, err := codec.Encode(testBlob(n, 3))
	if err != nil {
		b.Fatal(err)
	}
	shards[0], shards[2] = nil, nil
	b.Run(sizeName(n), func(b *testing.B) {
		b.SetBytes(n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			blob, err := codec.Decode(shards, n)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = blob
		}
	})
}

// BenchmarkDistRestore is one restore of an 8 MiB rs 4+2 line on its
// owner, among 8 DistStores: Open, which queries the peers, fetches k
// shards and lands them in place, then ReadSection. The stores share the
// in-memory interconnect (8MiB), where the owner copies each data shard
// into its blob from the holder's memory, or each runs on its own loopback
// tcp.Mesh (8MiB-tcp), which reads each data shard off the socket straight
// into the blob. The owner keeps no local copy of an rs line, and the one
// Open re-installs is dropped before each round. With one data shard
// missing, its holder has lost it: the restore fetches a parity shard
// instead and rebuilds the data shard into its offset.
func BenchmarkDistRestore(b *testing.B) {
	const n, owner, size = 8, 3, 8 << 20
	for _, w := range []struct {
		name  string
		world func(b *testing.B) []*DistStore
	}{
		{"", func(b *testing.B) []*DistStore {
			nw := transport.NewNetwork(n)
			stores := make([]*DistStore, n)
			for r := range stores {
				stores[r] = NewDistStore(r, n, nw, WithDistCodec(newRSCodec(4, 2)))
			}
			b.Cleanup(func() {
				for _, s := range stores {
					s.Close()
				}
			})
			return stores
		}},
		{"-tcp", func(b *testing.B) []*DistStore { return tcpDistWorld(b, n, WithDistCodec(newRSCodec(4, 2))) }},
	} {
		b.Run(sizeName(size)+w.name, func(b *testing.B) { benchDistRestore(b, w.world(b), owner, size) })
	}
}

func benchDistRestore(b *testing.B, stores []*DistStore, owner, size int) {
	app := testBlob(size, 6)
	for _, c := range []struct {
		name string
		drop int // a data shard lost before the restores, or -1
	}{{"all-shards", -1}, {"one-missing", 0}} {
		version := c.drop + 2
		ck, err := stores[owner].Begin(owner, version)
		if err == nil {
			err = ck.WriteSection("app", app)
		}
		if err == nil {
			err = ck.Commit()
		}
		if err != nil {
			b.Fatal(err)
		}
		if c.drop >= 0 {
			dropShard(stores, owner, version, c.drop)
		}
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stores[owner].mu.Lock()
				delete(stores[owner].node.local, version)
				stores[owner].mu.Unlock()
				snap, err := stores[owner].Open(owner, version)
				if err != nil {
					b.Fatal(err)
				}
				data, err := snap.ReadSection("app")
				if err != nil || len(data) != size {
					b.Fatalf("ReadSection: %d bytes, %v", len(data), err)
				}
				benchSink = data
			}
		})
	}
}

// BenchmarkDiskCommit is one line of DiskStore's Configuration #3 write
// path as the protocol layer drives it: Begin, an 8 MiB application
// section plus five small protocol sections, Commit. The previous version
// is retired after each, so the directory holds at most one line.
func BenchmarkDiskCommit(b *testing.B) {
	store, err := NewDiskStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	app := testBlob(8<<20, 4)
	small := testBlob(256, 5)
	names := []string{"mpi", "early", "late", "results", "requests"}
	b.SetBytes(int64(len(app) + len(names)*len(small)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		ck, err := store.Begin(0, i)
		if err != nil {
			b.Fatal(err)
		}
		if err := ck.WriteSection("app", app); err != nil {
			b.Fatal(err)
		}
		for _, name := range names {
			if err := ck.WriteSection(name, small); err != nil {
				b.Fatal(err)
			}
		}
		if err := ck.Commit(); err != nil {
			b.Fatal(err)
		}
		if err := store.Retire(0, i); err != nil {
			b.Fatal(err)
		}
	}
}
