package tcp

// Partition fault-model tests for the real TCP mesh: blackhole (drop) and
// short-split (hold) rules, asymmetric cuts, the Heal flush, and a hold
// rule on the receiving mesh alone. The contract table (contract_test.go)
// runs the same promises against every interconnect.

import (
	"fmt"
	"testing"
	"time"

	"c3/internal/transport"
)

// setPartitionAll installs the same rule set on every mesh, the way each
// cluster node applies a global partition event.
func setPartitionAll(meshes []*Mesh, block [][2]int, hold bool) {
	for _, m := range meshes {
		m.SetPartition(block, hold)
	}
}

func healAll(meshes []*Mesh) {
	for _, m := range meshes {
		m.Heal()
	}
}

// awaitMsg polls the mesh's local port for one message. Unlike recvOne it
// leaks no blocked Recv goroutine on timeout, so a failed wait cannot
// steal a later frame from the same mesh.
func awaitMsg(t *testing.T, m *Mesh, timeout time.Duration) (transport.Message, bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		msg, ok, err := m.port.TryRecv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if ok {
			return msg, true
		}
		if time.Now().After(deadline) {
			return transport.Message{}, false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// assertSilent waits out the window and fails if anything was delivered.
func assertSilent(t *testing.T, m *Mesh, window time.Duration) {
	t.Helper()
	time.Sleep(window)
	if msg, ok, _ := m.port.TryRecv(); ok {
		t.Fatalf("unexpected delivery across the cut: %v", msg)
	}
}

func TestMeshPartitionDropAndHeal(t *testing.T) {
	meshes := newTestMeshes(t, 3)
	// Sever rank 2 from ranks 0 and 1, both directions, blackhole mode.
	cut := [][2]int{{0, 2}, {2, 0}, {1, 2}, {2, 1}}
	setPartitionAll(meshes, cut, false)

	if err := meshes[0].Send(transport.Message{From: 0, To: 2, Payload: testPayload("a")}); err != nil {
		t.Fatalf("send into cut: %v", err)
	}
	if err := meshes[2].Send(transport.Message{From: 2, To: 0, Payload: testPayload("b")}); err != nil {
		t.Fatalf("send out of cut: %v", err)
	}
	assertSilent(t, meshes[2], 300*time.Millisecond)
	assertSilent(t, meshes[0], 100*time.Millisecond)
	if d := meshes[0].Stats().MessagesDropped; d == 0 {
		t.Error("drop-mode sever not counted in MessagesDropped")
	}
	// The same-side pair is untouched.
	if err := meshes[0].Send(transport.Message{From: 0, To: 1, Payload: testPayload("same-side")}); err != nil {
		t.Fatal(err)
	}
	if msg, ok := awaitMsg(t, meshes[1], 5*time.Second); !ok || string(msg.Payload.(testPayload)) != "same-side" {
		t.Fatalf("same-side traffic disturbed by the cut: %v %v", msg, ok)
	}

	healAll(meshes)
	// Dropped frames are gone for good; fresh traffic flows again. Per-pair
	// FIFO means that if the severed "b" frame had secretly crossed, it
	// would arrive ahead of "after" — so checking the first frame also
	// re-checks the blackhole.
	if err := meshes[2].Send(transport.Message{From: 2, To: 0, Payload: testPayload("after")}); err != nil {
		t.Fatal(err)
	}
	if msg, ok := awaitMsg(t, meshes[0], 5*time.Second); !ok || string(msg.Payload.(testPayload)) != "after" {
		t.Fatalf("traffic did not resume after heal: %v %v", msg, ok)
	}
}

func TestMeshPartitionAsymmetric(t *testing.T) {
	meshes := newTestMeshes(t, 2)
	// Sever only 1 -> 0: rank 1 still hears rank 0 but cannot answer.
	setPartitionAll(meshes, [][2]int{{1, 0}}, false)

	if err := meshes[0].Send(transport.Message{From: 0, To: 1, Payload: testPayload("forward")}); err != nil {
		t.Fatal(err)
	}
	if msg, ok := awaitMsg(t, meshes[1], 5*time.Second); !ok || string(msg.Payload.(testPayload)) != "forward" {
		t.Fatalf("open direction blocked by asymmetric rule: %v %v", msg, ok)
	}
	if err := meshes[1].Send(transport.Message{From: 1, To: 0, Payload: testPayload("reverse")}); err != nil {
		t.Fatal(err)
	}
	assertSilent(t, meshes[0], 300*time.Millisecond)
}

func TestMeshPartitionHoldFlushesInOrder(t *testing.T) {
	meshes := newTestMeshes(t, 2)
	setPartitionAll(meshes, [][2]int{{0, 1}, {1, 0}}, true)

	const k = 10
	for i := 0; i < k; i++ {
		p := testPayload(fmt.Sprintf("held-%02d", i))
		if err := meshes[0].Send(transport.Message{From: 0, To: 1, Payload: p}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	assertSilent(t, meshes[1], 300*time.Millisecond)

	healAll(meshes)
	for i := 0; i < k; i++ {
		msg, ok := awaitMsg(t, meshes[1], 5*time.Second)
		if !ok {
			t.Fatalf("held frame %d never flushed at heal", i)
		}
		want := fmt.Sprintf("held-%02d", i)
		if got := string(msg.Payload.(testPayload)); got != want {
			t.Fatalf("heal flush reordered: got %q, want %q", got, want)
		}
	}
}

// TestMeshReceiverHoldsUntilHeal: a hold rule takes effect at the mesh
// that installed it. With the rules on the receiving mesh only, the
// sender's frames cross the wire and wait at the receiver: none is
// delivered before the receiver's Heal, and all arrive in order after it,
// ahead of a frame sent after the Heal.
func TestMeshReceiverHoldsUntilHeal(t *testing.T) {
	meshes := newTestMeshes(t, 2)
	warmPair(t, meshes[0], meshes[1])
	meshes[1].SetPartition([][2]int{{0, 1}, {1, 0}}, true)
	const k = 10
	var want []string
	for i := 0; i < k; i++ {
		want = append(want, fmt.Sprintf("held-%02d", i))
		timedSend(t, meshes[0], 1, want[i])
	}
	assertSilent(t, meshes[1], 300*time.Millisecond)
	meshes[1].Heal()
	want = append(want, "after")
	timedSend(t, meshes[0], 1, "after")
	expectBodies(t, meshes[1], want)
	if d := meshes[0].Stats().MessagesDropped + meshes[1].Stats().MessagesDropped; d != 0 {
		t.Fatalf("%d frames dropped under a hold rule", d)
	}
}
