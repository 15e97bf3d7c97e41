package stable

import (
	"testing"
	"time"
)

// Tests for the FailNode contract of the in-process world: the failed
// node's memory is lost with everything queued to it at that instant, and
// every other node treats it as a holder that lost its shards.

// commitApp commits one "app" section; it reports errors instead of
// failing the test, so it can run beside the test goroutine.
func commitApp(s Store, rank, version int, data string) error {
	ck, err := s.Begin(rank, version)
	if err != nil {
		return err
	}
	if err := ck.WriteSection("app", []byte(data)); err != nil {
		return err
	}
	return ck.Commit()
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// acks reports whether every holder in from is in state st for node's
// commit in flight.
func acks(node *DistStore, st ackState, from ...int) bool {
	node.mu.Lock()
	defer node.mu.Unlock()
	for _, h := range from {
		found := false
		for key, got := range node.awaiting {
			if key.from == h && got == st {
				found = true
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TestFailNodeReleasesCommitBlockedOnWipedHolder: a commit waiting on a
// holder whose memory FailNode wipes stops waiting for it at once, well
// inside the default 5 s ack timeout.
func TestFailNodeReleasesCommitBlockedOnWipedHolder(t *testing.T) {
	s := NewReplicatedStore(4)
	defer s.Close()
	s.net.SetPartition([][2]int{{0, 1}}, true) // holder 1 never sees the commit, so never acks
	done := make(chan error, 1)
	go func() { done <- commitApp(s, 0, 1, "blocked") }()
	waitFor(t, "the commit waits on holder 1", func() bool { return acks(s.nodes[0], ackPending, 1) })

	start := time.Now()
	s.FailNode(1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("dup commit with one wiped holder: %v", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("commit returned %v after FailNode", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("FailNode did not release the commit waiting on the wiped holder")
	}
}

// TestFailNodeCommitFailsPastParityBudget: holders wiped mid-commit count
// lost even when they had acknowledged; once more than m shards are lost
// and the cross-group parity shard is lost too, the commit errors.
func TestFailNodeCommitFailsPastParityBudget(t *testing.T) {
	const n, g, owner = 10, 5, 0
	s := NewReplicatedStore(n, WithDistCodec(mustCodec(t, "rs", 3, 1)), WithDistGroupSize(g))
	defer s.Close()
	parity := s.nodes[owner].Topology().ParityHolder(owner)
	s.net.SetPartition([][2]int{{owner, 1}}, true)
	done := make(chan error, 1)
	go func() { done <- commitApp(s, owner, 1, "three of four shards, then two") }()
	waitFor(t, "every other holder acked", func() bool { return acks(s.nodes[owner], ackDone, 2, 3, 4, parity) })

	s.FailNode(2)      // an acknowledged shard: lost, within the budget
	s.FailNode(parity) // the acknowledged parity shard: lost
	select {
	case err := <-done:
		t.Fatalf("commit returned %v with one shard lost and holder 1 pending", err)
	case <-time.After(50 * time.Millisecond):
	}
	s.FailNode(1)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("commit with 2 of 4 shards and the parity shard lost reported success")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("FailNode did not release the commit")
	}
}

// TestFailNodeDropsFragmentsQueuedToIt: replication traffic already queued
// to a node when FailNode wipes it is not held afterwards.
func TestFailNodeDropsFragmentsQueuedToIt(t *testing.T) {
	s := NewReplicatedStore(4)
	defer s.Close()
	holder := s.nodes[1]
	inbox := s.net.Endpoint(1)
	holder.mu.Lock() // stall holder 1's daemon on the first message it takes
	go func() { _ = commitApp(s, 0, 1, "queued") }()
	// Holder 2's ack follows the commit's traffic to holder 1: its copy of
	// the line and the marker, of which the stalled daemon took one.
	waitFor(t, "holder 2 acked", func() bool { return acks(s.nodes[0], ackDone, 2) })
	waitFor(t, "the daemon of holder 1 stalled", func() bool { return inbox.Pending() == 1 })
	failed := make(chan struct{})
	go func() {
		s.FailNode(1)
		close(failed)
	}()
	waitFor(t, "the wipe is queued behind it", func() bool { return inbox.Pending() == 2 })
	holder.mu.Unlock()
	<-failed

	holder.mu.Lock()
	frags, markers := len(holder.node.frags), len(holder.node.commits)
	holder.mu.Unlock()
	if frags != 0 || markers != 0 {
		t.Fatalf("wiped holder keeps %d fragments and %d markers queued to it before FailNode", frags, markers)
	}
}

// TestFailNodeOwnInFlightCommitKeepsNoLocalCopy: a node wiped while its
// own commit is in flight installs no local copy when the commit returns;
// the line lives on the holders that acknowledged it.
func TestFailNodeOwnInFlightCommitKeepsNoLocalCopy(t *testing.T) {
	s := NewReplicatedStore(4, WithAckTimeout(200*time.Millisecond))
	defer s.Close()
	s.net.SetPartition([][2]int{{0, 1}}, true)
	done := make(chan error, 1)
	go func() { done <- commitApp(s, 0, 1, "owner dies mid-commit") }()
	waitFor(t, "holder 2 acked", func() bool { return acks(s.nodes[0], ackDone, 2) })
	s.FailNode(0)
	if err := <-done; err != nil {
		t.Fatalf("commit: %v", err)
	}
	owner := s.nodes[0]
	owner.mu.Lock()
	local := len(owner.node.local)
	owner.mu.Unlock()
	if local != 0 {
		t.Fatalf("wiped owner holds %d local copies after its in-flight commit", local)
	}
	s.net.Heal() // let the recovery query reach holder 1 too
	if v, ok, _ := s.LastCommitted(0); !ok || v != 1 {
		t.Fatalf("LastCommitted = %d,%v; want the line from holder 2", v, ok)
	}
}
