package ckpt

import (
	"fmt"
	"sync"
	"testing"

	"c3/internal/mpi"
	"c3/internal/stable"
)

// BenchmarkProtocolPerMessage prices what the protocol layer adds to one
// message: a ping-pong between two ranks over the in-memory network, once
// straight through mpi and once through ckpt.Layer (piggybacked color,
// classification, request table), with no checkpoint taken. One op is a
// round trip, two messages; allocations count both ranks.
func BenchmarkProtocolPerMessage(b *testing.B) {
	for _, size := range []int{8, 1 << 10} {
		for _, layered := range []bool{false, true} {
			name := "direct"
			if layered {
				name = "layer"
			}
			b.Run(fmt.Sprintf("%s/%dB", name, size), func(b *testing.B) {
				benchPingPong(b, size, layered)
			})
		}
	}
}

// pingPonger is the send/receive surface mpi.Comm and WComm share.
type pingPonger interface {
	SendBytes(data []byte, dest, tag int) error
	RecvBytes(buf []byte, src, tag int) (mpi.Status, error)
}

// newLayers creates a protocol layer with an in-memory store on every rank
// of world; ckpt.New is collective, so they are made concurrently.
func newLayers(tb testing.TB, world *mpi.World, n int) []*Layer {
	tb.Helper()
	ls, errs := make([]*Layer, n), make([]error, n)
	var wg sync.WaitGroup
	for r := range ls {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ls[r], errs[r] = New(world.Proc(r), Config{Store: stable.NewMemStore()})
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			tb.Fatal(err)
		}
	}
	return ls
}

func benchPingPong(b *testing.B, size int, layered bool) {
	world := mpi.NewWorld(2)
	defer world.Shutdown()
	comms := [2]pingPonger{world.Proc(0).CommWorld(), world.Proc(1).CommWorld()}
	if layered {
		for r, l := range newLayers(b, world, 2) {
			comms[r] = l.World()
		}
	}
	n := b.N
	echoed := make(chan error, 1)
	go func() {
		buf := make([]byte, size)
		for i := 0; i < n; i++ {
			if _, err := comms[1].RecvBytes(buf, 0, 1); err != nil {
				echoed <- err
				return
			}
			if err := comms[1].SendBytes(buf, 0, 2); err != nil {
				echoed <- err
				return
			}
		}
		echoed <- nil
	}()
	msg, buf := make([]byte, size), make([]byte, size)
	b.SetBytes(int64(2 * size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < n; i++ {
		if err := comms[0].SendBytes(msg, 1, 1); err != nil {
			b.Fatal(err)
		}
		if _, err := comms[0].RecvBytes(buf, 1, 2); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := <-echoed; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCollectives prices the collective engine on each plane: an
// Allreduce of one float64 between 2 ranks (the CG kernel's only
// collective), and a Bcast and an Alltoall of a 64 KiB buffer per rank
// between 4 ranks. One op is one collective on every rank: rank 0 waits
// for the others before the next, so no queue builds up behind an eager
// root. Allocations count all ranks.
func BenchmarkCollectives(b *testing.B) {
	const size = 64 << 10
	for _, bc := range []struct {
		name string
		n    int
		op   func(c collComm, send, recv []byte) error
	}{
		{"allreduce-8B", 2, func(c collComm, send, recv []byte) error {
			return c.Allreduce(send[:8], recv[:8], 1, mpi.TypeFloat64, mpi.OpSum)
		}},
		{"bcast-64KiB", 4, func(c collComm, send, _ []byte) error {
			return c.Bcast(send, size/8, mpi.TypeFloat64, 0)
		}},
		{"alltoall-64KiB", 4, func(c collComm, send, recv []byte) error {
			return c.Alltoall(send, size/8/4, mpi.TypeFloat64, recv)
		}},
	} {
		for _, wrapped := range []bool{false, true} {
			name := bc.name + "/native"
			if wrapped {
				name = bc.name + "/wrapped"
			}
			b.Run(name, func(b *testing.B) { benchColl(b, bc.n, size, wrapped, bc.op) })
		}
	}
}

func benchColl(b *testing.B, n, size int, wrapped bool, op func(c collComm, send, recv []byte) error) {
	world := mpi.NewWorld(n)
	defer world.Shutdown()
	comms := make([]collComm, n)
	for r := range comms {
		comms[r] = nativeComm{world.Proc(r).CommWorld()}
	}
	if wrapped {
		for r, l := range newLayers(b, world, n) {
			comms[r] = l.World()
		}
	}
	iters := b.N
	done := make(chan error, n)
	for _, c := range comms[1:] {
		go func(c collComm) {
			send, recv := make([]byte, size), make([]byte, size)
			for i := 0; i < iters; i++ {
				err := op(c, send, recv)
				if done <- err; err != nil {
					return
				}
			}
		}(c)
	}
	send, recv := make([]byte, size), make([]byte, size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < iters; i++ {
		if err := op(comms[0], send, recv); err != nil {
			b.Fatal(err)
		}
		for range comms[1:] {
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		}
	}
}
