package transport

// Partition fault-model tests for the in-memory Network: blackhole (drop)
// and short-split (hold) rules, asymmetric cuts, rule replacement, and the
// ordered flush at Heal. The real-time network delivers synchronously, so
// every assertion is immediate — no settling sleeps.

import (
	"runtime"
	"testing"
)

func cutPairs(a, b []int) [][2]int {
	var pairs [][2]int
	for _, x := range a {
		for _, y := range b {
			pairs = append(pairs, [2]int{x, y}, [2]int{y, x})
		}
	}
	return pairs
}

func TestNetworkPartitionDropSever(t *testing.T) {
	nw := NewNetwork(3)
	nw.SetPartition(cutPairs([]int{0, 1}, []int{2}), false)

	if err := nw.Send(Message{From: 0, To: 2, Payload: testPayload{seq: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := nw.Send(Message{From: 2, To: 1, Payload: testPayload{seq: 2}}); err != nil {
		t.Fatal(err)
	}
	if p := nw.Endpoint(2).Pending(); p != 0 {
		t.Fatalf("severed frame queued at rank 2 (%d pending)", p)
	}
	if p := nw.Endpoint(1).Pending(); p != 0 {
		t.Fatalf("severed frame queued at rank 1 (%d pending)", p)
	}
	if d := nw.Stats().MessagesDropped; d != 2 {
		t.Fatalf("MessagesDropped = %d, want 2", d)
	}
	// Same-side traffic is untouched.
	if err := nw.Send(Message{From: 0, To: 1, Payload: testPayload{seq: 3}}); err != nil {
		t.Fatal(err)
	}
	if msg, ok, _ := nw.Endpoint(1).TryRecv(); !ok || msg.Payload.(testPayload).seq != 3 {
		t.Fatalf("same-side send disturbed by the cut: %v %v", msg, ok)
	}

	nw.Heal()
	// Blackholed frames are gone for good; fresh traffic flows.
	if p := nw.Endpoint(2).Pending(); p != 0 {
		t.Fatalf("heal resurrected %d dropped frame(s)", p)
	}
	if err := nw.Send(Message{From: 2, To: 1, Payload: testPayload{seq: 4}}); err != nil {
		t.Fatal(err)
	}
	if msg, ok, _ := nw.Endpoint(1).TryRecv(); !ok || msg.Payload.(testPayload).seq != 4 {
		t.Fatalf("traffic did not resume after heal: %v %v", msg, ok)
	}
}

func TestNetworkPartitionHoldFlushesInOrder(t *testing.T) {
	nw := NewNetwork(2)
	nw.SetPartition(cutPairs([]int{0}, []int{1}), true)

	const k = 10
	for i := 0; i < k; i++ {
		if err := nw.Send(Message{From: 0, To: 1, Payload: testPayload{seq: i}}); err != nil {
			t.Fatal(err)
		}
	}
	if p := nw.Endpoint(1).Pending(); p != 0 {
		t.Fatalf("held frame crossed the split early (%d pending)", p)
	}
	if d := nw.Stats().MessagesDropped; d != 0 {
		t.Fatalf("hold mode dropped %d frame(s)", d)
	}

	nw.Heal()
	ep := nw.Endpoint(1)
	for i := 0; i < k; i++ {
		msg, ok, err := ep.TryRecv()
		if err != nil || !ok {
			t.Fatalf("held frame %d missing after heal (ok=%v err=%v)", i, ok, err)
		}
		if got := msg.Payload.(testPayload).seq; got != i {
			t.Fatalf("heal flush reordered: got %d, want %d", got, i)
		}
	}
}

func TestNetworkPartitionAsymmetric(t *testing.T) {
	nw := NewNetwork(2)
	// Sever only 1 -> 0.
	nw.SetPartition([][2]int{{1, 0}}, false)

	if err := nw.Send(Message{From: 0, To: 1, Payload: testPayload{seq: 1}}); err != nil {
		t.Fatal(err)
	}
	if msg, ok, _ := nw.Endpoint(1).TryRecv(); !ok || msg.Payload.(testPayload).seq != 1 {
		t.Fatalf("open direction blocked by asymmetric rule: %v %v", msg, ok)
	}
	if err := nw.Send(Message{From: 1, To: 0, Payload: testPayload{seq: 2}}); err != nil {
		t.Fatal(err)
	}
	if p := nw.Endpoint(0).Pending(); p != 0 {
		t.Fatalf("severed direction delivered (%d pending)", p)
	}
}

// TestNetworkPartitionReplaceRules: installing a new rule set replaces the
// old one but keeps already-held frames for the next Heal, so a schedule
// that re-partitions before healing loses nothing it promised to hold.
func TestNetworkPartitionReplaceRules(t *testing.T) {
	nw := NewNetwork(3)
	nw.SetPartition(cutPairs([]int{0}, []int{1}), true)
	if err := nw.Send(Message{From: 0, To: 1, Payload: testPayload{seq: 7}}); err != nil {
		t.Fatal(err)
	}

	// Replace: now only 0 <-> 2 is cut; 0 -> 1 flows again.
	nw.SetPartition(cutPairs([]int{0}, []int{2}), true)
	if err := nw.Send(Message{From: 0, To: 1, Payload: testPayload{seq: 8}}); err != nil {
		t.Fatal(err)
	}
	if msg, ok, _ := nw.Endpoint(1).TryRecv(); !ok || msg.Payload.(testPayload).seq != 8 {
		t.Fatalf("pair freed by rule replacement still severed: %v %v", msg, ok)
	}

	nw.Heal()
	if msg, ok, _ := nw.Endpoint(1).TryRecv(); !ok || msg.Payload.(testPayload).seq != 7 {
		t.Fatalf("frame held under the replaced rule set lost: %v %v", msg, ok)
	}
}

// TestNetworkPartitionSendDuringHealKeepsOrder: a send issued while Heal
// flushes the held messages is delivered after all of them, so the pair's
// FIFO order survives the heal. The sender waits until the flush has begun
// (the destination's queue is no longer empty) and then sends at once.
func TestNetworkPartitionSendDuringHealKeepsOrder(t *testing.T) {
	const held, during = 20000, 200
	for round := 0; round < 5; round++ {
		nw := NewNetwork(2)
		nw.SetPartition([][2]int{{0, 1}}, true)
		for i := 0; i < held; i++ {
			if err := nw.Send(Message{From: 0, To: 1, Payload: testPayload{seq: i}}); err != nil {
				t.Fatal(err)
			}
		}
		ep := nw.Endpoint(1)
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			for ep.Pending() == 0 {
				runtime.Gosched()
			}
			for i := held; i < held+during; i++ {
				if err := nw.Send(Message{From: 0, To: 1, Payload: testPayload{seq: i}}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		nw.Heal()
		<-sent
		for i := 0; i < held+during; i++ {
			msg, ok, err := ep.TryRecv()
			if err != nil || !ok {
				t.Fatalf("round %d: delivery %d missing (ok=%v err=%v)", round, i, ok, err)
			}
			if got := msg.Payload.(testPayload).seq; got != i {
				t.Fatalf("round %d: delivery %d was message %d", round, i, got)
			}
		}
	}
}
