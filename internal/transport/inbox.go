package transport

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Inbox is one rank's receive queue: unbounded, FIFO, killable. Every
// interconnect keeps its local ranks' queues in one: the in-memory
// Network's Endpoint, each Demux plane and the TCP mesh's local port.
// Push and Kill may be called from any goroutine. An Inbox is itself an
// untraced Port; interconnects that record message edges wrap it.
type Inbox struct {
	rank int

	// ready mirrors the queue for the lock-free poll: the number of
	// undelivered messages, or -1 once killed. It is written only under mu.
	ready atomic.Int32

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []Message
	head    int // queue[head:] is undelivered; the slice is reused once drained
	killed  bool
	forward func(Message) // Forward's target: pushes bypass the queue
}

// NewInbox returns an empty, live inbox for rank.
func NewInbox(rank int) *Inbox {
	q := &Inbox{rank: rank}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Rank implements Port.
func (q *Inbox) Rank() int { return q.rank }

// Push enqueues msg and wakes a parked receiver. It reports false, and
// drops msg, once the inbox is killed.
func (q *Inbox) Push(msg Message) bool {
	q.mu.Lock()
	if q.killed {
		q.mu.Unlock()
		return false
	}
	if q.forward != nil {
		q.forward(msg)
		q.mu.Unlock()
		return true
	}
	if q.head > 0 && len(q.queue) == cap(q.queue) {
		// Reclaim the delivered prefix before append grows the slice, so a
		// queue that never drains stays within twice its backlog.
		n := copy(q.queue, q.queue[q.head:])
		clear(q.queue[n:])
		q.queue, q.head = q.queue[:n], 0
	}
	q.queue = append(q.queue, msg)
	q.ready.Store(int32(len(q.queue) - q.head))
	q.mu.Unlock()
	q.cond.Signal()
	return true
}

// Forward makes the inbox a pass-through: fn gets every queued message in
// order, then each pushed one on the pusher's goroutine instead of the
// queue, under the inbox lock, so the calls stay serialized in push order
// as a single reader would make them. fn must not push into this inbox.
func (q *Inbox) Forward(fn func(Message)) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head < len(q.queue) {
		fn(q.popLocked())
	}
	q.forward = fn
}

// Forwarding reports whether Forward has made the inbox a pass-through.
func (q *Inbox) Forwarding() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.forward != nil
}

// Kill discards every queued message, refuses later pushes and makes
// every receive, pending or future, return ErrDown.
func (q *Inbox) Kill() {
	q.mu.Lock()
	q.killed = true
	q.queue, q.head = nil, 0
	q.ready.Store(-1)
	q.mu.Unlock()
	q.cond.Broadcast()
}

// popLocked removes the head message; the queue must be non-empty.
func (q *Inbox) popLocked() Message {
	msg := q.queue[q.head]
	q.queue[q.head] = Message{} // drop the payload reference
	q.head++
	if q.head == len(q.queue) {
		q.queue, q.head = q.queue[:0], 0
	}
	q.ready.Store(int32(len(q.queue) - q.head))
	return msg
}

// Recv implements Port: it parks until a message arrives or the inbox is
// killed.
func (q *Inbox) Recv() (Message, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.queue) {
		if q.killed {
			return Message{}, ErrDown
		}
		q.cond.Wait()
	}
	return q.popLocked(), nil
}

// TryRecv implements Port.
func (q *Inbox) TryRecv() (Message, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.killed {
		return Message{}, false, ErrDown
	}
	if q.head == len(q.queue) {
		return Message{}, false, nil
	}
	return q.popLocked(), true, nil
}

// Pending implements Port.
func (q *Inbox) Pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.queue) - q.head
}

// Killed implements Port.
func (q *Inbox) Killed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.killed
}

// pollRounds bounds the poll that precedes parking in the in-memory
// Endpoint's Recv: at most this many scheduler yields, each followed by
// one lock-free look at the ready count. One Gosched round costs
// 140-180 ns on a 2-vCPU Xeon, so a receiver spins at most 70-90 µs
// before it parks. That covers the reply gap of a compute-bound rank pair
// exchanging a few messages per iteration: the receiver finds its message
// without a park/unpark, and the two ranks keep computing on two Ps
// instead of taking turns on one. A longer wait parks as before. On that
// host, cg-nockpt's instrumented run took 775-836 ms with no poll,
// 592 ms at 100 rounds and 527-555 ms at 250, 500 and 1000; 500 sits in
// the middle of that plateau. It is a constant, not an option: it trades
// the runtime's yield cost against message gaps, which no caller knows
// better than the transport.
const pollRounds = 500

// poll yields the processor until a message (or the kill) is visible or
// the budget is spent. Gosched keeps the loop cooperative when ranks
// outnumber processors: a yielding receiver lets the sender it waits for
// run.
func (q *Inbox) poll() {
	for i := 0; i < pollRounds && q.ready.Load() == 0; i++ {
		runtime.Gosched()
	}
}

// DownPort is the Port of a rank whose receive side lives elsewhere (in
// another process): every receive fails with ErrDown.
type DownPort int

// Rank implements Port.
func (d DownPort) Rank() int { return int(d) }

// Recv implements Port.
func (DownPort) Recv() (Message, error) { return Message{}, ErrDown }

// TryRecv implements Port.
func (DownPort) TryRecv() (Message, bool, error) { return Message{}, false, ErrDown }

// Pending implements Port.
func (DownPort) Pending() int { return 0 }

// Killed implements Port.
func (DownPort) Killed() bool { return true }
