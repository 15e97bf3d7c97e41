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

func benchPingPong(b *testing.B, size int, layered bool) {
	world := mpi.NewWorld(2)
	defer world.Shutdown()
	var comms [2]pingPonger
	var errs [2]error
	var wg sync.WaitGroup
	for r := range comms {
		if !layered {
			comms[r] = world.Proc(r).CommWorld()
			continue
		}
		wg.Add(1)
		go func(r int) { // ckpt.New is collective
			defer wg.Done()
			var l *Layer
			if l, errs[r] = New(world.Proc(r), Config{Store: stable.NewMemStore()}); errs[r] == nil {
				comms[r] = l.World()
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
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
