package transport

import (
	"slices"
	"testing"
	"time"
)

// returnsWithin runs f and fails the test if it has not returned after d:
// a cut that locks against itself hangs instead of failing.
func returnsWithin(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// TestCutPushMayUseTheCut: push may consult and use the cut again, as a
// demux observer that sends from inside a delivery does. With a rule in
// force on another pair, a nested Deliver goes straight through. Inside
// Heal's flush, a nested Deliver queues behind the flushed messages, a
// nested Heal returns at once, and a rule set from there holds its pair's
// messages until the next Heal.
func TestCutPushMayUseTheCut(t *testing.T) {
	var c *Cut
	var got []int
	c = NewCut(func(msg Message) bool {
		n := msg.Payload.(int)
		got = append(got, n)
		if n < 100 {
			c.Severs(0, 1)
			c.Deliver(Message{From: 2, To: 1, Payload: n + 100})
		}
		if n == 1 { // inside Heal's flush
			c.Heal()
			c.Set([][2]int{{4, 1}}, true)
			c.Deliver(Message{From: 4, To: 1, Payload: 200})
		}
		return true
	})
	c.Set([][2]int{{0, 1}}, true)
	returnsWithin(t, 5*time.Second, "Deliver under a rule on another pair", func() {
		c.Deliver(Message{From: 0, To: 1, Payload: 1})
		c.Deliver(Message{From: 2, To: 1, Payload: 2})
	})
	returnsWithin(t, 5*time.Second, "Heal", func() { c.Heal() })
	returnsWithin(t, 5*time.Second, "Deliver after Heal", func() {
		c.Deliver(Message{From: 2, To: 1, Payload: 3})
	})
	if want := []int{2, 102, 1, 101, 3, 103}; !slices.Equal(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	got = nil
	c.Heal()
	if want := []int{200}; !slices.Equal(got, want) {
		t.Fatalf("second Heal delivered %v, want %v", got, want)
	}
}
