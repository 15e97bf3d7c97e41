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

// tcpLayers brings up n ranks, each with its own loopback tcp.Mesh, MPI
// world and protocol layer (the stack a c3node worker runs), torn down
// when the test ends.
func tcpLayers(t *testing.T, n int) []*Layer {
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
	layers, errs := make([]*Layer, n), make([]error, n)
	var wg sync.WaitGroup
	for r := range layers {
		wg.Add(1)
		go func(r int) { // New is collective
			defer wg.Done()
			world := mpi.NewWorld(n, mpi.WithInterconnect(meshes[r]))
			layers[r], errs[r] = New(world.Proc(r), Config{Store: stable.NewMemStore()})
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
