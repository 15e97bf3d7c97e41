package transport

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// A send toward a killed endpoint under a latency model is dropped and
// counted, and never blocks the sender, however many follow it.
func TestDelayedSendToKilledEndpointNeverBlocks(t *testing.T) {
	nw := NewNetwork(2, WithLatency(ConstantLatency(100*time.Microsecond, 0)))
	nw.Kill(1)
	const sends = 3000
	done := make(chan error, 1)
	go func() {
		for i := 0; i < sends; i++ {
			if err := nw.Send(Message{From: 0, To: 1, Payload: testPayload{seq: i}}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%d sends toward a killed endpoint still blocked after 5s", sends)
	}
	if got := nw.Stats().MessagesDropped; got != sends {
		t.Fatalf("dropped %d messages, want %d", got, sends)
	}
}

// A receiver that has spent its poll budget and parked is still woken by
// a later push.
func TestRecvWakesAfterPollBudget(t *testing.T) {
	nw := NewNetwork(2)
	got := make(chan Message, 1)
	go func() {
		msg, err := nw.Endpoint(1).Recv()
		if err == nil {
			got <- msg
		}
	}()
	time.Sleep(50 * time.Millisecond) // hundreds of times the poll budget
	if err := nw.Send(Message{From: 0, To: 1, Payload: testPayload{seq: 7}}); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		if msg.Payload.(testPayload).seq != 7 {
			t.Fatalf("received %v, want seq 7", msg.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a message pushed after the poll budget never woke the parked receiver")
	}
}

// A kill that lands while the receiver polls, or after it parked, makes
// Recv return ErrDown promptly.
func TestKillDuringPollReturnsErrDown(t *testing.T) {
	for _, wait := range []time.Duration{0, 20 * time.Millisecond} {
		nw := NewNetwork(1)
		errc := make(chan error, 1)
		go func() {
			_, err := nw.Endpoint(0).Recv()
			errc <- err
		}()
		time.Sleep(wait)
		nw.Kill(0)
		select {
		case err := <-errc:
			if !errors.Is(err, ErrDown) {
				t.Fatalf("kill after %v: Recv returned %v, want ErrDown", wait, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("kill after %v: Recv still blocked", wait)
		}
	}
}

// Concurrent producers against one consumer mixing polled Recv and
// TryRecv: every accepted message arrives exactly once. A kill in the
// middle of the stream ends it: nothing arrives twice or after ErrDown,
// and nothing arrives that a push did not accept.
func TestInboxConcurrentPushRecvKill(t *testing.T) {
	const producers, perProducer = 4, 2000
	for round := 0; round < 20; round++ {
		killAt := -1
		if round%2 == 1 {
			killAt = producers * perProducer / 2
		}
		nw := NewNetwork(1)
		ep := nw.Endpoint(0)
		var accepted sync.Map
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < perProducer; i++ {
					id := p*perProducer + i
					if nw.eps[0].push(Message{Payload: testPayload{seq: id}}) {
						accepted.Store(id, true)
					}
				}
			}(p)
		}
		seen := make(map[int]bool)
		for n := 0; len(seen) < producers*perProducer; n++ {
			if len(seen) == killAt {
				nw.Kill(0)
			}
			var msg Message
			var err error
			if n%3 == 0 {
				var ok bool
				if msg, ok, err = ep.TryRecv(); err == nil && !ok {
					continue
				}
			} else {
				msg, err = ep.Recv()
			}
			if err != nil {
				if killAt < 0 {
					t.Fatalf("round %d: receive failed without a kill: %v", round, err)
				}
				break
			}
			id := msg.Payload.(testPayload).seq
			if seen[id] {
				t.Fatalf("round %d: message %d delivered twice", round, id)
			}
			seen[id] = true
		}
		wg.Wait()
		for id := range seen {
			if _, ok := accepted.Load(id); !ok {
				t.Fatalf("round %d: message %d delivered but never accepted", round, id)
			}
		}
		if killAt >= 0 {
			if _, err := ep.Recv(); !errors.Is(err, ErrDown) {
				t.Fatalf("round %d: Recv after kill returned %v, want ErrDown", round, err)
			}
			if len(seen) != killAt {
				t.Fatalf("round %d: %d messages delivered, kill came after %d", round, len(seen), killAt)
			}
		}
	}
}

// A queue that never drains reuses its delivered prefix instead of
// growing without bound.
func TestInboxBacklogStaysBounded(t *testing.T) {
	q := NewInbox(0)
	for i := 0; i < 4; i++ {
		q.Push(Message{Payload: testPayload{seq: i}})
	}
	for i := 4; i < 100000; i++ {
		q.Push(Message{Payload: testPayload{seq: i}})
		msg, ok, err := q.TryRecv()
		if !ok || err != nil {
			t.Fatalf("TryRecv: ok=%v err=%v", ok, err)
		}
		if got := msg.Payload.(testPayload).seq; got != i-4 {
			t.Fatalf("message %d arrived as %d", i-4, got)
		}
	}
	if c := cap(q.queue); c > 64 {
		t.Fatalf("backlog of 4 holds a %d-slot slice", c)
	}
}

// BenchmarkNetworkPingPong is one round trip of an 8 B payload between two
// goroutines over the in-memory network under real scheduling.
func BenchmarkNetworkPingPong(b *testing.B) {
	nw := NewNetwork(2)
	defer nw.Shutdown()
	payload := make([]byte, 8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ep := nw.Endpoint(1)
		for {
			if _, err := ep.Recv(); err != nil {
				return
			}
			if err := nw.Send(Message{From: 1, To: 0, Payload: payload}); err != nil {
				return
			}
		}
	}()
	ep := nw.Endpoint(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := nw.Send(Message{From: 0, To: 1, Payload: payload}); err != nil {
			b.Fatal(err)
		}
		if _, err := ep.Recv(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	nw.Shutdown()
	<-done
}
