package mpi

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"c3/internal/transport"
)

// runRanks executes fn once per rank, each on its own goroutine, and fails
// the test on any error.
func runRanks(t *testing.T, n int, fn func(p *Proc) error) *World {
	t.Helper()
	w := NewWorld(n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(w.Proc(r))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return w
}

func TestSendRecvBasic(t *testing.T) {
	runRanks(t, 2, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			return c.SendBytes([]byte("hello"), 1, 7)
		}
		buf := make([]byte, 16)
		st, err := c.RecvBytes(buf, 0, 7)
		if err != nil {
			return err
		}
		if st.Source != 0 || st.Tag != 7 || st.Bytes != 5 {
			return fmt.Errorf("status %+v", st)
		}
		if string(buf[:5]) != "hello" {
			return fmt.Errorf("payload %q", buf[:5])
		}
		return nil
	})
}

func TestNonOvertakingSameSignature(t *testing.T) {
	const k = 50
	runRanks(t, 2, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			for i := 0; i < k; i++ {
				if err := c.SendBytes([]byte{byte(i)}, 1, 3); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < k; i++ {
			buf := make([]byte, 1)
			if _, err := c.RecvBytes(buf, 0, 3); err != nil {
				return err
			}
			if buf[0] != byte(i) {
				return fmt.Errorf("message %d arrived out of order (got %d)", i, buf[0])
			}
		}
		return nil
	})
}

func TestTagSelectionReordersAcrossSignatures(t *testing.T) {
	// Sender sends tag 1 then tag 2; receiver chooses tag 2 first. This is
	// the application-chosen receive order the paper highlights in §2.4.
	runRanks(t, 2, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			if err := c.SendBytes([]byte{1}, 1, 1); err != nil {
				return err
			}
			return c.SendBytes([]byte{2}, 1, 2)
		}
		buf := make([]byte, 1)
		if _, err := c.RecvBytes(buf, 0, 2); err != nil {
			return err
		}
		if buf[0] != 2 {
			return fmt.Errorf("tag-2 receive got payload %d", buf[0])
		}
		if _, err := c.RecvBytes(buf, 0, 1); err != nil {
			return err
		}
		if buf[0] != 1 {
			return fmt.Errorf("tag-1 receive got payload %d", buf[0])
		}
		return nil
	})
}

func TestWildcardSourceAndTag(t *testing.T) {
	runRanks(t, 3, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() != 0 {
			return c.SendBytes([]byte{byte(p.Rank())}, 0, 10+p.Rank())
		}
		seen := map[int]bool{}
		for i := 0; i < 2; i++ {
			buf := make([]byte, 1)
			st, err := c.RecvBytes(buf, AnySource, AnyTag)
			if err != nil {
				return err
			}
			if int(buf[0]) != st.Source || st.Tag != 10+st.Source {
				return fmt.Errorf("mismatched status %+v payload %d", st, buf[0])
			}
			seen[st.Source] = true
		}
		if !seen[1] || !seen[2] {
			return fmt.Errorf("missing sources: %v", seen)
		}
		return nil
	})
}

func TestIsendIrecvWaitTest(t *testing.T) {
	runRanks(t, 2, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			req, err := c.Isend([]byte{42}, 1, TypeByte, 1, 5)
			if err != nil {
				return err
			}
			if !req.Done() {
				return fmt.Errorf("eager send not complete")
			}
			_, err = req.Wait()
			return err
		}
		buf := make([]byte, 1)
		req, err := c.Irecv(buf, 1, TypeByte, 0, 5)
		if err != nil {
			return err
		}
		st, err := req.Wait()
		if err != nil {
			return err
		}
		if st.Bytes != 1 || buf[0] != 42 {
			return fmt.Errorf("bad completion st=%+v buf=%v", st, buf)
		}
		return nil
	})
}

func TestPostedReceiveMatchOrder(t *testing.T) {
	// Two posted wildcard receives must complete in post order.
	runRanks(t, 2, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			if err := c.SendBytes([]byte{1}, 1, 9); err != nil {
				return err
			}
			return c.SendBytes([]byte{2}, 1, 9)
		}
		b1 := make([]byte, 1)
		b2 := make([]byte, 1)
		r1, err := c.Irecv(b1, 1, TypeByte, AnySource, 9)
		if err != nil {
			return err
		}
		r2, err := c.Irecv(b2, 1, TypeByte, AnySource, 9)
		if err != nil {
			return err
		}
		if _, err := r1.Wait(); err != nil {
			return err
		}
		if _, err := r2.Wait(); err != nil {
			return err
		}
		if b1[0] != 1 || b2[0] != 2 {
			return fmt.Errorf("posted order violated: %d, %d", b1[0], b2[0])
		}
		return nil
	})
}

func TestSendrecvExchange(t *testing.T) {
	runRanks(t, 2, func(p *Proc) error {
		c := p.CommWorld()
		other := 1 - p.Rank()
		out := []byte{byte(p.Rank() + 100)}
		in := make([]byte, 1)
		st, err := c.Sendrecv(out, 1, TypeByte, other, 4, in, 1, TypeByte, other, 4)
		if err != nil {
			return err
		}
		if in[0] != byte(other+100) || st.Source != other {
			return fmt.Errorf("exchange got %d from %d", in[0], st.Source)
		}
		return nil
	})
}

func TestTruncationError(t *testing.T) {
	runRanks(t, 2, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			return c.SendBytes(make([]byte, 10), 1, 1)
		}
		buf := make([]byte, 4)
		_, err := c.RecvBytes(buf, 0, 1)
		if err == nil {
			return fmt.Errorf("expected truncation error")
		}
		return nil
	})
}

func TestProbeAndIprobe(t *testing.T) {
	runRanks(t, 2, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			return c.SendBytes([]byte("xyz"), 1, 8)
		}
		st, err := c.Probe(0, 8)
		if err != nil {
			return err
		}
		if st.Bytes != 3 {
			return fmt.Errorf("probe bytes %d", st.Bytes)
		}
		// Probe must not consume: the message is still receivable.
		buf := make([]byte, 3)
		if _, err := c.RecvBytes(buf, 0, 8); err != nil {
			return err
		}
		_, found, err := c.Iprobe(0, 8)
		if err != nil {
			return err
		}
		if found {
			return fmt.Errorf("iprobe found message after receive")
		}
		return nil
	})
}

func TestBarrier(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runRanks(t, n, func(p *Proc) error {
				for i := 0; i < 3; i++ {
					if err := p.CommWorld().Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

func TestBcast(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		for root := 0; root < n; root += 3 {
			n, root := n, root
			t.Run(fmt.Sprintf("n=%d root=%d", n, root), func(t *testing.T) {
				runRanks(t, n, func(p *Proc) error {
					c := p.CommWorld()
					buf := make([]byte, 8*4)
					if p.Rank() == root {
						PutFloat64s(buf, []float64{1, 2, 3, 4})
					}
					if err := c.Bcast(buf, 4, TypeFloat64, root); err != nil {
						return err
					}
					got := BytesFloat64s(buf)
					for i, v := range got {
						if v != float64(i+1) {
							return fmt.Errorf("element %d = %v", i, v)
						}
					}
					return nil
				})
			})
		}
	}
}

func TestGatherScatter(t *testing.T) {
	const n = 4
	runRanks(t, n, func(p *Proc) error {
		c := p.CommWorld()
		mine := []byte{byte(p.Rank())}
		all := make([]byte, n)
		if err := c.Gather(mine, 1, TypeByte, all, 1, TypeByte, 2); err != nil {
			return err
		}
		if p.Rank() == 2 {
			for i := 0; i < n; i++ {
				if all[i] != byte(i) {
					return fmt.Errorf("gather slot %d = %d", i, all[i])
				}
			}
		}
		// Scatter back doubled values from rank 2.
		var send []byte
		if p.Rank() == 2 {
			send = make([]byte, n)
			for i := range send {
				send[i] = byte(2 * i)
			}
		}
		recv := make([]byte, 1)
		if err := c.Scatter(send, 1, TypeByte, recv, 1, TypeByte, 2); err != nil {
			return err
		}
		if recv[0] != byte(2*p.Rank()) {
			return fmt.Errorf("scatter got %d", recv[0])
		}
		return nil
	})
}

func TestAllgatherAlltoall(t *testing.T) {
	const n = 5
	runRanks(t, n, func(p *Proc) error {
		c := p.CommWorld()
		mine := []byte{byte(p.Rank() + 1)}
		all := make([]byte, n)
		if err := c.Allgather(mine, 1, TypeByte, all); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if all[i] != byte(i+1) {
				return fmt.Errorf("allgather slot %d = %d", i, all[i])
			}
		}
		send := make([]byte, n)
		for j := range send {
			send[j] = byte(10*p.Rank() + j)
		}
		recv := make([]byte, n)
		if err := c.Alltoall(send, 1, TypeByte, recv); err != nil {
			return err
		}
		for j := 0; j < n; j++ {
			if recv[j] != byte(10*j+p.Rank()) {
				return fmt.Errorf("alltoall slot %d = %d", j, recv[j])
			}
		}
		return nil
	})
}

func TestAlltoallv(t *testing.T) {
	const n = 3
	runRanks(t, n, func(p *Proc) error {
		c := p.CommWorld()
		r := p.Rank()
		// Rank r sends (j+1) bytes of value r*10+j to rank j.
		sendCounts := make([]int, n)
		sendDispls := make([]int, n)
		total := 0
		for j := 0; j < n; j++ {
			sendCounts[j] = j + 1
			sendDispls[j] = total
			total += j + 1
		}
		sendBuf := make([]byte, total)
		for j := 0; j < n; j++ {
			for k := 0; k < sendCounts[j]; k++ {
				sendBuf[sendDispls[j]+k] = byte(r*10 + j)
			}
		}
		recvCounts := make([]int, n)
		recvDispls := make([]int, n)
		rtotal := 0
		for j := 0; j < n; j++ {
			recvCounts[j] = r + 1
			recvDispls[j] = rtotal
			rtotal += r + 1
		}
		recvBuf := make([]byte, rtotal)
		if err := c.Alltoallv(sendBuf, sendCounts, sendDispls, recvBuf, recvCounts, recvDispls); err != nil {
			return err
		}
		for j := 0; j < n; j++ {
			for k := 0; k < recvCounts[j]; k++ {
				want := byte(j*10 + r)
				if got := recvBuf[recvDispls[j]+k]; got != want {
					return fmt.Errorf("from %d byte %d: got %d want %d", j, k, got, want)
				}
			}
		}
		return nil
	})
}

func TestReduceAllreduceScan(t *testing.T) {
	const n = 6
	runRanks(t, n, func(p *Proc) error {
		c := p.CommWorld()
		r := p.Rank()
		in := Float64Bytes([]float64{float64(r + 1)})
		out := make([]byte, 8)
		if err := c.Reduce(in, out, 1, TypeFloat64, OpSum, 3); err != nil {
			return err
		}
		if r == 3 {
			if got := BytesFloat64s(out)[0]; got != 21 {
				return fmt.Errorf("reduce sum = %v", got)
			}
		}
		if err := c.Allreduce(in, out, 1, TypeFloat64, OpMax); err != nil {
			return err
		}
		if got := BytesFloat64s(out)[0]; got != float64(n) {
			return fmt.Errorf("allreduce max = %v", got)
		}
		if err := c.Scan(in, out, 1, TypeFloat64, OpSum); err != nil {
			return err
		}
		want := float64((r + 1) * (r + 2) / 2)
		if got := BytesFloat64s(out)[0]; got != want {
			return fmt.Errorf("scan = %v, want %v", got, want)
		}
		return nil
	})
}

func TestReduceInt64AndUserOp(t *testing.T) {
	const n = 4
	gcd := func(a, b int64) int64 {
		for b != 0 {
			a, b = b, a%b
		}
		return a
	}
	opGCD := NewOp("gcd", true, func(in, inout []byte, kind PrimKind, count int) error {
		if kind != KInt64 {
			return fmt.Errorf("gcd needs int64")
		}
		a := BytesInt64s(in)
		b := BytesInt64s(inout)
		for i := 0; i < count; i++ {
			b[i] = gcd(a[i], b[i])
		}
		PutInt64s(inout, b)
		return nil
	})
	runRanks(t, n, func(p *Proc) error {
		c := p.CommWorld()
		in := Int64Bytes([]int64{int64(12 * (p.Rank() + 1))})
		out := make([]byte, 8)
		if err := c.Allreduce(in, out, 1, TypeInt64, opGCD); err != nil {
			return err
		}
		if got := BytesInt64s(out)[0]; got != 12 {
			return fmt.Errorf("gcd = %d", got)
		}
		return nil
	})
}

func TestCommDupIsolation(t *testing.T) {
	runRanks(t, 2, func(p *Proc) error {
		c := p.CommWorld()
		dup, err := c.Dup()
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			// Same tag, different communicators: must not cross-match.
			if err := c.SendBytes([]byte{1}, 1, 5); err != nil {
				return err
			}
			return dup.SendBytes([]byte{2}, 1, 5)
		}
		buf := make([]byte, 1)
		if _, err := dup.RecvBytes(buf, 0, 5); err != nil {
			return err
		}
		if buf[0] != 2 {
			return fmt.Errorf("dup comm got %d", buf[0])
		}
		if _, err := c.RecvBytes(buf, 0, 5); err != nil {
			return err
		}
		if buf[0] != 1 {
			return fmt.Errorf("world comm got %d", buf[0])
		}
		return nil
	})
}

func TestCommSplit(t *testing.T) {
	const n = 6
	runRanks(t, n, func(p *Proc) error {
		c := p.CommWorld()
		color := p.Rank() % 2
		sub, err := c.Split(color, -p.Rank()) // reverse order within color
		if err != nil {
			return err
		}
		if sub == nil {
			return fmt.Errorf("unexpected nil subcomm")
		}
		if sub.Size() != n/2 {
			return fmt.Errorf("subcomm size %d", sub.Size())
		}
		// Reverse key ordering: highest old rank becomes rank 0.
		wantRank := (n - 2 - p.Rank() + color) / 2
		if sub.Rank() != wantRank {
			return fmt.Errorf("subcomm rank %d, want %d", sub.Rank(), wantRank)
		}
		// Allreduce within the subcomm only sums its members.
		in := Int64Bytes([]int64{int64(p.Rank())})
		out := make([]byte, 8)
		if err := sub.Allreduce(in, out, 1, TypeInt64, OpSum); err != nil {
			return err
		}
		want := int64(0)
		for r := color; r < n; r += 2 {
			want += int64(r)
		}
		if got := BytesInt64s(out)[0]; got != want {
			return fmt.Errorf("subcomm sum %d, want %d", got, want)
		}
		return nil
	})
}

func TestSplitNegativeColor(t *testing.T) {
	const n = 4
	runRanks(t, n, func(p *Proc) error {
		c := p.CommWorld()
		color := 0
		if p.Rank() == 3 {
			color = -1
		}
		sub, err := c.Split(color, 0)
		if err != nil {
			return err
		}
		if p.Rank() == 3 {
			if sub != nil {
				return fmt.Errorf("rank 3 should get nil subcomm")
			}
			return nil
		}
		if sub == nil || sub.Size() != 3 {
			return fmt.Errorf("subcomm wrong: %v", sub)
		}
		return nil
	})
}

func TestWaitanyWaitsome(t *testing.T) {
	runRanks(t, 3, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() != 0 {
			return c.SendBytes([]byte{byte(p.Rank())}, 0, 2)
		}
		b1 := make([]byte, 1)
		b2 := make([]byte, 1)
		r1, err := c.Irecv(b1, 1, TypeByte, 1, 2)
		if err != nil {
			return err
		}
		r2, err := c.Irecv(b2, 1, TypeByte, 2, 2)
		if err != nil {
			return err
		}
		reqs := []*Request{r1, r2}
		got := map[int]bool{}
		for len(got) < 2 {
			idx, _, err := Waitany(reqs)
			if err != nil {
				return err
			}
			if idx < 0 {
				return fmt.Errorf("waitany returned -1")
			}
			got[idx] = true
			reqs[idx] = nil
		}
		if b1[0] != 1 || b2[0] != 2 {
			return fmt.Errorf("payloads %d %d", b1[0], b2[0])
		}
		return nil
	})
}

func TestBsendAccounting(t *testing.T) {
	runRanks(t, 2, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			if err := c.Bsend(make([]byte, 10), 10, TypeByte, 1, 1); err == nil {
				return fmt.Errorf("bsend without attach should fail")
			}
			if err := p.BufferAttach(64); err != nil {
				return err
			}
			if err := c.Bsend(make([]byte, 10), 10, TypeByte, 1, 1); err != nil {
				return err
			}
			if err := c.Bsend(make([]byte, 100), 100, TypeByte, 1, 1); err == nil {
				return fmt.Errorf("oversized bsend should fail")
			}
			if got := p.BufferDetach(); got != 64 {
				return fmt.Errorf("detach returned %d", got)
			}
			return nil
		}
		buf := make([]byte, 10)
		_, err := c.RecvBytes(buf, 0, 1)
		return err
	})
}

func TestKillUnblocksReceive(t *testing.T) {
	w := NewWorld(2)
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := w.Proc(1).CommWorld().RecvBytes(buf, 0, 1)
		done <- err
	}()
	w.Kill(1)
	if err := <-done; err == nil {
		t.Fatal("killed receive returned nil error")
	}
}

func TestAllreduceAux(t *testing.T) {
	const n = 5
	runRanks(t, n, func(p *Proc) error {
		c := p.CommWorld()
		in := Float64Bytes([]float64{float64(p.Rank() + 1)})
		out := make([]byte, 8)
		aux := int64(100 + p.Rank())
		minAux, err := c.AllreduceAux(in, out, 1, TypeFloat64, OpSum, aux)
		if err != nil {
			return err
		}
		if minAux != 100 {
			return fmt.Errorf("aux min = %d, want 100", minAux)
		}
		if got := BytesFloat64s(out)[0]; got != 15 {
			return fmt.Errorf("sum = %v, want 15", got)
		}
		// Reversed aux ordering: the minimum must still win.
		minAux, err = c.AllreduceAux(in, out, 1, TypeFloat64, OpMax, int64(-p.Rank()))
		if err != nil {
			return err
		}
		if minAux != int64(-(n - 1)) {
			return fmt.Errorf("aux min = %d, want %d", minAux, -(n - 1))
		}
		if got := BytesFloat64s(out)[0]; got != n {
			return fmt.Errorf("max = %v, want %d", got, n)
		}
		return nil
	})
}

// TestEnvelopeWireParts: the head WireParts builds in the envelope is
// MarshalWire's encoding up to the data, decodes back to the envelope,
// and costs no allocation.
func TestEnvelopeWireParts(t *testing.T) {
	e := &Envelope{SrcWorld: 3, Tag: -2, Ctx: 9, Data: []byte("payload")}
	head, body := e.WireParts()
	joined := append(append([]byte(nil), head...), body...)
	if !bytes.Equal(joined, e.MarshalWire()) {
		t.Fatalf("head+body %x differ from MarshalWire %x", joined, e.MarshalWire())
	}
	got, err := transport.DecodeWirePayload(e.WireKind(), joined)
	if d, ok := got.(*Envelope); err != nil || !ok || d.SrcWorld != 3 || d.Tag != -2 || d.Ctx != 9 || string(d.Data) != "payload" {
		t.Fatalf("decoded %+v, %v", got, err)
	}
	if n := testing.AllocsPerRun(100, func() { e.WireParts() }); n != 0 {
		t.Fatalf("WireParts allocated %v times per call", n)
	}
}
