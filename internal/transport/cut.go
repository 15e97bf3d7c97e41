package transport

import (
	"sync"
	"sync/atomic"
)

// Cut is the partition fault model, consulted where a message arrives: the
// directed (from, to) pairs currently severed, and the messages a hold rule
// keeps for the next Heal. A drop rule's messages are lost (a blackhole: a
// partition outlasting TCP's patience); a hold rule's are delivered in
// order at Heal (a short split bridged by retransmission).
//
// The rules in force are an immutable snapshot behind one atomic pointer,
// so Severs never locks, and Deliver locks only to hold a message or to
// queue it behind a running Heal's flush. No message is handed on under
// the lock: push may send, and a send consults the cut again.
type Cut struct {
	push  func(Message) bool     // hands a message on; false: its destination is gone
	rules atomic.Pointer[cutSet] // nil: no rule in force, nothing held, no flush running

	mu    sync.Mutex // guards held and queue; every store of rules is made under it
	held  []Message  // kept by a hold rule for the next Heal
	queue []Message  // what a running Heal has still to hand on, in order
}

// cutSet is a snapshot of a Cut's rules.
type cutSet struct {
	blocked map[[2]int]bool
	hold    bool
	flush   bool // a Heal is flushing: a message no rule severs queues behind it
}

// NewCut returns a cut with no rule in force that hands the messages it
// lets through to push.
func NewCut(push func(Message) bool) *Cut {
	return &Cut{push: push}
}

// publishLocked stores the snapshot of the given rules, or nil when no rule
// is in force, nothing is held and no flush runs. Callers hold c.mu.
func (c *Cut) publishLocked(blocked map[[2]int]bool, hold, flush bool) {
	if len(blocked) == 0 && len(c.held) == 0 && !flush {
		c.rules.Store(nil)
		return
	}
	c.rules.Store(&cutSet{blocked: blocked, hold: hold, flush: flush})
}

// flushingLocked reports whether a Heal is flushing. Callers hold c.mu.
func (c *Cut) flushingLocked() bool {
	r := c.rules.Load()
	return r != nil && r.flush
}

// Set installs directed partition rules, replacing any rule set in force.
// With hold, a severed pair's messages are kept for Heal; without it they
// are dropped. Messages held under a replaced rule set stay held, and a
// pair the new rules free flows at once.
func (c *Cut) Set(block [][2]int, hold bool) {
	blocked := make(map[[2]int]bool, len(block))
	for _, p := range block {
		blocked[p] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.publishLocked(blocked, hold, c.flushingLocked())
}

// Severs reports whether a rule in force severs the directed pair.
func (c *Cut) Severs(from, to int) bool {
	r := c.rules.Load()
	return r != nil && r.blocked[[2]int{from, to}]
}

// Deliver hands msg on unless a rule severs its pair: a hold rule keeps it
// for Heal, a drop rule drops it. While a Heal flushes, a message no rule
// severs queues behind the flushed ones. It reports false when msg was
// dropped, by a rule or because its destination is gone.
func (c *Cut) Deliver(msg Message) bool {
	pair := [2]int{msg.From, msg.To}
	if r := c.rules.Load(); r == nil || !r.flush && !r.blocked[pair] {
		return c.push(msg)
	}
	c.mu.Lock()
	r := c.rules.Load() // the rules may have changed before the lock
	switch {
	case r == nil || !r.flush && !r.blocked[pair]:
		c.mu.Unlock()
		return c.push(msg)
	case r.blocked[pair] && !r.hold:
		c.mu.Unlock()
		return false
	case r.blocked[pair]:
		c.held = append(c.held, msg)
	default:
		c.queue = append(c.queue, msg)
	}
	c.mu.Unlock()
	return true
}

// Heal clears the rules in force and hands every held message on, in the
// order it arrived, ahead of any message delivered after the Heal. It
// returns how many of them were dropped because their destination is gone.
// A Heal made while another flushes (from a push of that flush, say) adds
// its held messages to that flush and returns at once.
func (c *Cut) Heal() (dropped int) {
	c.mu.Lock()
	c.queue = append(c.queue, c.held...)
	c.held = nil
	nested := c.flushingLocked()
	c.publishLocked(nil, false, true)
	if nested {
		c.mu.Unlock()
		return 0
	}
	for len(c.queue) > 0 {
		batch := c.queue
		c.queue = nil
		c.mu.Unlock()
		for _, msg := range batch {
			if !c.push(msg) {
				dropped++
			}
		}
		c.mu.Lock()
	}
	r := c.rules.Load() // a Set during the flush installed rules of its own
	c.publishLocked(r.blocked, r.hold, false)
	c.mu.Unlock()
	return dropped
}
