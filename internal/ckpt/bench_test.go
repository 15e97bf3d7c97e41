package ckpt

import (
	"fmt"
	"math"
	"runtime"
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
	p := newEchoPair(b, size, layered)
	b.SetBytes(int64(2 * size))
	b.ReportAllocs()
	b.ResetTimer()
	if err := p.run(b.N); err != nil {
		b.Fatal(err)
	}
}

// echoPair is two ranks over the in-memory network, straight through mpi
// or through ckpt.Layer, playing ping-pong with messages of one size.
type echoPair struct {
	comms    [2]pingPonger
	msg, buf []byte
}

func newEchoPair(tb testing.TB, size int, layered bool) *echoPair {
	world := mpi.NewWorld(2)
	tb.Cleanup(world.Shutdown)
	p := &echoPair{
		comms: [2]pingPonger{world.Proc(0).CommWorld(), world.Proc(1).CommWorld()},
		msg:   make([]byte, size),
		buf:   make([]byte, size),
	}
	if layered {
		for r, l := range newLayers(tb, world, 2) {
			p.comms[r] = l.World()
		}
	}
	return p
}

// run plays n round trips, rank 1 echoing each message back, and returns
// once both ranks are done.
func (p *echoPair) run(n int) error {
	echoed := make(chan error, 1)
	go func() {
		buf := make([]byte, len(p.buf))
		for i := 0; i < n; i++ {
			if _, err := p.comms[1].RecvBytes(buf, 0, 1); err != nil {
				echoed <- err
				return
			}
			if err := p.comms[1].SendBytes(buf, 0, 2); err != nil {
				echoed <- err
				return
			}
		}
		echoed <- nil
	}()
	for i := 0; i < n; i++ {
		if err := p.comms[0].SendBytes(p.msg, 1, 1); err != nil {
			return err
		}
		if _, err := p.comms[0].RecvBytes(p.buf, 1, 2); err != nil {
			return err
		}
	}
	return <-echoed
}

// TestLayerAddsNoAllocationPerMessage: a round trip through the protocol
// layer allocates no more objects than one straight through mpi, at 8 B
// and at 1 KiB. The layer packs each message once behind its header and
// reads each arrival in place, so a message costs it no buffer of its own.
// A round trip's count is the difference between runs of 2k and k round
// trips, each begun and ended with both ranks idle, so no allocation of
// the echo's straddles a measurement.
func TestLayerAddsNoAllocationPerMessage(t *testing.T) {
	const k = 200
	for _, size := range []int{8, 1 << 10} {
		var allocs [2]float64
		for i, layered := range []bool{false, true} {
			p := newEchoPair(t, size, layered)
			mallocs := func(n int) uint64 {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				if err := p.run(n); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return after.Mallocs - before.Mallocs
			}
			once := mallocs(k)
			allocs[i] = math.Round(float64(mallocs(2*k)-once) / k)
		}
		t.Logf("%d B round trip: direct %v allocs, layer %v", size, allocs[0], allocs[1])
		if allocs[1] > allocs[0] {
			t.Errorf("%d B round trip: layer allocates %v objects, direct %v", size, allocs[1], allocs[0])
		}
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
