package detect

import (
	"net"
	"sync"
	"testing"
	"time"

	"c3/internal/transport"
	"c3/internal/transport/tcp"
)

// muteListener accepts connections and never answers a handshake, so a
// mesh dialing it waits out each handshake timeout.
func muteListener(t testing.TB) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
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
	return ln.Addr().String()
}

// TestMuteMemberDelaysNoPing: ranks 0 and 1 run detectors over TCP meshes,
// and rank 2's listener accepts but never answers the handshake, so each
// mesh's writer toward rank 2 sits in a dial. The lease pings between the
// live ranks must not queue behind it: each keeps hearing from the other
// within a lease.
func TestMuteMemberDelaysNoPing(t *testing.T) {
	hb := tuned(25 * time.Millisecond)
	addrs := []string{"", "", muteListener(t)}
	for r := range 2 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[r] = ln.Addr().String()
		_ = ln.Close()
	}
	dets := make([]*Detector, 2)
	for r := range dets {
		m, err := tcp.New(r, addrs)
		if err != nil {
			t.Fatal(err)
		}
		dm := transport.NewDemux(m, r)
		d, err := New(Options{Self: r, Ranks: 3, Net: dm.Plane(transport.WireKindDetect), HeartbeatInterval: hb})
		if err != nil {
			t.Fatal(err)
		}
		d.ObserveVia(dm)
		dm.Start()
		d.Start()
		dets[r] = d
		t.Cleanup(func() {
			d.Close()
			m.Close()
		})
	}
	lease := dets[0].lease
	var worst time.Duration
	for end := time.Now().Add(3 * lease); time.Now().Before(end); time.Sleep(hb / 5) {
		for r, d := range dets {
			d.mu.Lock()
			age := d.clock().Sub(d.lastHeard[1-r])
			d.mu.Unlock()
			worst = max(worst, age)
		}
	}
	if worst >= lease {
		t.Fatalf("a live rank went %v without hearing from the other (lease %v): its pings waited behind the dial to the mute rank", worst, lease)
	}
	for r, d := range dets {
		for _, s := range d.Suspected() {
			if s == 1-r {
				t.Fatalf("rank %d suspects live rank %d", r, s)
			}
		}
	}
}
