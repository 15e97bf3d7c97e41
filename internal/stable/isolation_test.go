package stable

import (
	"net"
	"sync"
	"testing"
	"time"
)

// muteOn listens on addr, accepts connections and never answers a
// handshake, so a mesh dialing it waits out each handshake timeout.
func muteOn(t testing.TB, addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			_ = c.Close()
		}
	})
}

// TestMuteHolderDelaysNoShard: rank 0 commits an rs(2,1) line whose first
// holder in plan order, rank 1, accepts connections but never answers the
// handshake. Its other holders, ranks 2 and 3, must hold their shards and
// the commit marker long before the dial toward rank 1 gives up, while the
// commit still waits for rank 1's acknowledgment.
func TestMuteHolderDelaysNoShard(t *testing.T) {
	meshes := tcpMeshes(t, 4)
	meshes[1].Close()
	muteOn(t, meshes[1].Addr())
	codec, err := NewCodec("rs", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := []DistOption{WithDistCodec(codec), WithAckTimeout(10 * time.Second)}
	stores := map[int]*DistStore{}
	for _, r := range []int{0, 2, 3} {
		stores[r] = NewDistStore(r, 4, meshes[r], opts...)
		t.Cleanup(stores[r].Close)
	}
	ck, err := stores[0].Begin(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.WriteSection("app", make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	committed := make(chan error, 1)
	start := time.Now()
	go func() { committed <- ck.Commit() }()
	holds := func(s *DistStore) bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		_, ok := s.node.commits[replCommitKey{owner: 0, version: 1}]
		return ok
	}
	const within = time.Second // the handshake timeout is 2 s
	for !holds(stores[2]) || !holds(stores[3]) {
		if time.Since(start) > within {
			t.Fatalf("ranks 2 and 3 hold the marker: %v, %v after %v; their shards waited behind the dial to rank 1",
				holds(stores[2]), holds(stores[3]), within)
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case err := <-committed:
		t.Fatalf("the commit ended (%v) without rank 1's acknowledgment or its timeout", err)
	default:
	}
	stores[0].AdvanceEpoch(2) // releases the commit's wait for rank 1
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
}
