package ckpt

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"

	"c3/internal/mpi"
	"c3/internal/stable"
	"c3/internal/transport/tcp"
)

// tcpWorlds brings up n ranks, each with its own loopback tcp.Mesh and MPI
// world, torn down when the test ends. World r hosts rank r.
func tcpWorlds(t testing.TB, n int) []*mpi.World {
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
	worlds := make([]*mpi.World, n)
	for r := range worlds {
		worlds[r] = mpi.NewWorld(n, mpi.WithInterconnect(meshes[r]))
	}
	return worlds
}

// tcpLayers is tcpWorlds with a protocol layer on every rank (the stack a
// c3node worker runs).
func tcpLayers(t testing.TB, n int) []*Layer {
	t.Helper()
	worlds := tcpWorlds(t, n)
	layers, errs := make([]*Layer, n), make([]error, n)
	var wg sync.WaitGroup
	for r := range layers {
		wg.Add(1)
		go func(r int) { // New is collective
			defer wg.Done()
			layers[r], errs[r] = New(worlds[r].Proc(r), Config{Store: stable.NewMemStore()})
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return layers
}

// TestWCommIsendWindowOverTCP: windows of 32 posted WComm.Isend messages,
// every eighth replaced by a blocking Send, between two ranks on loopback
// meshes. The sender scribbles over each buffer as soon as Isend returns.
// Every message arrives with the content it had at Isend, in send order;
// the larger ones take the mesh's bulk-body path.
func TestWCommIsendWindowOverTCP(t *testing.T) {
	layers := tcpLayers(t, 2)
	const rounds, window, tag = 20, 32, 7
	size := func(k int) int { return 1<<10 + (k%3)*(3<<10) } // 1, 4 and 7 KiB
	content := func(round, k int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("<%02d:%02d>", round, k)), size(k)/7+1)[:size(k)]
	}
	errc := make(chan error, 1)
	go func() {
		w := layers[1].World()
		buf := make([]byte, 7<<10)
		for round := 0; round < rounds; round++ {
			for k := 0; k < window; k++ {
				st, err := w.RecvBytes(buf, 0, tag)
				if err != nil {
					errc <- err
					return
				}
				if want := content(round, k); !bytes.Equal(buf[:st.Bytes], want) {
					errc <- fmt.Errorf("round %d: message %d arrived as %q..., want %q...", round, k, buf[:min(st.Bytes, 7)], want[:7])
					return
				}
			}
		}
		errc <- w.SendBytes([]byte("done"), 0, tag)
	}()
	w := layers[0].World()
	for round := 0; round < rounds; round++ {
		var ids []int
		for k := 0; k < window; k++ {
			buf := content(round, k)
			if k%8 == 7 {
				if err := w.Send(buf, len(buf), mpi.TypeByte, 1, tag); err != nil {
					t.Fatal(err)
				}
				continue
			}
			id, err := w.Isend(buf, len(buf), mpi.TypeByte, 1, tag)
			if err != nil {
				t.Fatal(err)
			}
			copy(buf, bytes.Repeat([]byte{'!'}, len(buf))) // the message owns its own bytes
			ids = append(ids, id)
		}
		if _, err := w.Waitall(ids); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	ack := make([]byte, 4)
	if _, err := w.RecvBytes(ack, 1, tag); err != nil || string(ack) != "done" {
		t.Fatalf("final ack %q, %v", ack, err)
	}
	for _, l := range layers {
		_ = l.Close(false)
	}
}

// BenchmarkIsendWindowOverTCP prices the smallmsg-tcp workload's window
// between two ranks on loopback meshes: 32 posted Isends of 1 KiB, Waitall,
// then the receiver's 8 B ack, which it sends once it has received all 32.
// The direct row runs straight through mpi.Comm, the layer row through
// WComm. Allocations count both ranks.
func BenchmarkIsendWindowOverTCP(b *testing.B) {
	const window, size = 32, 1 << 10
	for _, layered := range []bool{false, true} {
		name := "direct"
		if layered {
			name = "layer"
		}
		b.Run(name, func(b *testing.B) {
			var isend func(buf []byte) error
			var waitall func() error
			var comms [2]pingPonger
			if layered {
				layers := tcpLayers(b, 2)
				w := layers[0].World()
				ids := make([]int, 0, window)
				isend = func(buf []byte) error {
					id, err := w.Isend(buf, len(buf), mpi.TypeByte, 1, 1)
					ids = append(ids, id)
					return err
				}
				waitall = func() error {
					_, err := w.Waitall(ids)
					ids = ids[:0]
					return err
				}
				comms = [2]pingPonger{w, layers[1].World()}
			} else {
				worlds := tcpWorlds(b, 2)
				c := worlds[0].Proc(0).CommWorld()
				reqs := make([]*mpi.Request, 0, window)
				isend = func(buf []byte) error {
					req, err := c.Isend(buf, len(buf), mpi.TypeByte, 1, 1)
					reqs = append(reqs, req)
					return err
				}
				waitall = func() error {
					_, err := mpi.Waitall(reqs)
					reqs = reqs[:0]
					return err
				}
				comms = [2]pingPonger{c, worlds[1].Proc(1).CommWorld()}
			}
			n := b.N
			served := make(chan error, 1)
			go func() {
				buf, ack := make([]byte, size), make([]byte, 8)
				for i := 0; i < n; i++ {
					for k := 0; k < window; k++ {
						if _, err := comms[1].RecvBytes(buf, 0, 1); err != nil {
							served <- err
							return
						}
					}
					if err := comms[1].SendBytes(ack, 0, 2); err != nil {
						served <- err
						return
					}
				}
				served <- nil
			}()
			msg, ack := make([]byte, size), make([]byte, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < n; i++ {
				for k := 0; k < window; k++ {
					if err := isend(msg); err != nil {
						b.Fatal(err)
					}
				}
				if err := waitall(); err != nil {
					b.Fatal(err)
				}
				if _, err := comms[0].RecvBytes(ack, 1, 2); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := <-served; err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkPingPongOverTCP prices the smallmsg-tcp workload's op between
// two ranks on loopback meshes: one 64 B blocking round trip, the echoPair
// of BenchmarkProtocolPerMessage over TCP. The direct row runs straight
// through mpi.Comm, the layer row through WComm. Allocations count both
// ranks.
func BenchmarkPingPongOverTCP(b *testing.B) {
	const size = 64
	for _, layered := range []bool{false, true} {
		name := "direct"
		if layered {
			name = "layer"
		}
		b.Run(name, func(b *testing.B) {
			p := &echoPair{msg: make([]byte, size), buf: make([]byte, size)}
			if layered {
				layers := tcpLayers(b, 2)
				p.comms = [2]pingPonger{layers[0].World(), layers[1].World()}
			} else {
				worlds := tcpWorlds(b, 2)
				p.comms = [2]pingPonger{worlds[0].Proc(0).CommWorld(), worlds[1].Proc(1).CommWorld()}
			}
			if err := p.run(100); err != nil { // both connections up
				b.Fatal(err)
			}
			b.SetBytes(2 * size)
			b.ReportAllocs()
			b.ResetTimer()
			if err := p.run(b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}
