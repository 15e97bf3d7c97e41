package tcp

// The interconnect contract: one table of cases, each run against every
// transport.Interconnect — the in-memory Network, the same Network under
// the virtual Scheduler, the TCP Mesh, and a Demux plane view over meshes.
// A case states a promise any interconnect keeps: reliable FIFO delivery
// per pair, partition rules that act only where a message arrives, held
// messages flushed in order at Heal, sends toward a dead peer counted as
// dropped, a loss report behind the peer's last frame, an expected frame
// landed in its buffer. What an interconnect cannot express is a
// capability it lacks, named with the reason; a case that needs it does
// not run there, and the test log says why.

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"c3/internal/trace"
	"c3/internal/transport"
)

// capability is something a case needs that not every interconnect can
// express.
type capability string

const (
	// perRankRules: each rank's interconnect has rules of its own, so a
	// rule can be in force at a sender and not at its receiver.
	perRankRules capability = "per-rank rules"
	// lossReports: a peer's crash is reported behind its last frame.
	lossReports capability = "loss reports"
	// landing: an armed Expectation's frame is read into its buffer.
	landing capability = "landing"
)

// inMemory is what the in-memory Network, scheduled or not, lacks.
var inMemory = map[capability]string{
	perRankRules: "one rule set governs every arrival on the network",
	lossReports:  "a killed endpoint is the failure itself: no connection ends to report it",
	landing:      "a message is handed over by reference: no reader fills a buffer",
}

// interconnect builds n-rank worlds over one implementation.
type interconnect struct {
	name  string
	lacks map[capability]string
	build func(t *testing.T, n int) *world
}

var interconnects = []interconnect{
	{"network", inMemory, networkWorld(false)},
	{"scheduled", inMemory, networkWorld(true)},
	{"mesh", nil, meshWorld},
	{"demux", nil, demuxWorld},
}

// ruler installs and clears the partition rules that govern the messages
// arriving at one interconnect.
type ruler interface {
	SetPartition(block [][2]int, hold bool)
	Heal()
}

// world is an n-rank world over one interconnect, as a case sees it.
type world struct {
	n      int
	nets   []transport.Interconnect // rank r sends and receives on nets[r]
	rules  []ruler                  // the rules governing arrivals at rank r
	sched  *transport.Scheduler     // non-nil: each rank's part runs under it
	wire   bool                     // frames cross sockets: a send arrives later
	stats  []transport.Interconnect // each drop counter once
	crash  func(r int)              // fail-stops rank r, without a goodbye
	depart func(r int)              // shuts rank r down in order
	lost   func(r int) (lossReport, error)
	lander func(r int) transport.Lander
}

// lossReport is a loss report at a rank: the peer it names and the frames
// delivered ahead of it.
type lossReport struct {
	from   int
	before []transport.Message
}

const (
	recvTimeout = 5 * time.Second
	// settleTime lets a frame on the wire reach its reader, so a check
	// that nothing crossed a rule is not passed by a frame still in flight.
	settleTime = 100 * time.Millisecond
)

func networkWorld(scheduled bool) func(t *testing.T, n int) *world {
	return func(t *testing.T, n int) *world {
		w := &world{n: n}
		var opts []transport.Option
		if scheduled {
			w.sched = transport.NewScheduler(n, 1)
			opts = append(opts, transport.WithScheduler(w.sched))
			t.Cleanup(func() { trace.SetClock(nil) }) // the network set the engine's clock
		}
		nw := transport.NewNetwork(n, opts...)
		t.Cleanup(nw.Shutdown)
		for r := 0; r < n; r++ {
			w.nets = append(w.nets, nw)
			w.rules = append(w.rules, nw)
		}
		w.stats = []transport.Interconnect{nw}
		w.crash, w.depart = nw.Kill, nw.Kill
		return w
	}
}

func meshWorld(t *testing.T, n int) *world {
	meshes := newTestMeshes(t, n)
	w := &world{n: n, wire: true}
	for _, m := range meshes {
		m.ReportLosses()
		w.nets = append(w.nets, m)
		w.rules = append(w.rules, m)
		w.stats = append(w.stats, m)
	}
	w.crash = func(r int) { meshes[r].crash() }
	w.depart = func(r int) { meshes[r].Close() }
	w.lost = func(r int) (lossReport, error) {
		var rep lossReport
		for {
			msg, err := w.recv(r)
			if err != nil {
				return rep, fmt.Errorf("no loss report after %d frames: %w", len(rep.before), err)
			}
			if _, ok := msg.Payload.(transport.PeerLost); ok {
				rep.from = msg.From
				return rep, nil
			}
			rep.before = append(rep.before, msg)
		}
	}
	w.lander = func(r int) transport.Lander { return meshes[r] }
	return w
}

// demuxWorld is a world of Demux planes, one per mesh. A loss report goes
// to the lost observer, which notes how many frames its plane holds ahead
// of it.
func demuxWorld(t *testing.T, n int) *world {
	meshes := newTestMeshes(t, n)
	w := &world{n: n, wire: true}
	type lossEvent struct{ from, ahead int }
	reports := make([]chan lossEvent, n)
	demuxes := make([]*transport.Demux, n)
	for r, m := range meshes {
		d := transport.NewDemux(m, r)
		plane := d.Plane(taggedKind)
		reports[r] = make(chan lossEvent, n)
		d.SetObservers(nil, nil, func(from int) {
			reports[r] <- lossEvent{from, plane.Endpoint(r).Pending()}
		})
		d.Start()
		demuxes[r] = d
		w.nets = append(w.nets, plane)
		w.rules = append(w.rules, m)
		w.stats = append(w.stats, m)
	}
	w.crash = func(r int) { meshes[r].crash() }
	w.depart = func(r int) { demuxes[r].Close() }
	w.lost = func(r int) (lossReport, error) {
		select {
		case ev := <-reports[r]:
			rep := lossReport{from: ev.from}
			for range ev.ahead {
				msg, err := w.recv(r)
				if err != nil {
					return rep, err
				}
				rep.before = append(rep.before, msg)
			}
			return rep, nil
		case <-time.After(recvTimeout):
			return lossReport{}, fmt.Errorf("no loss report within %v", recvTimeout)
		}
	}
	w.lander = func(r int) transport.Lander { return w.nets[r].(transport.Lander) }
	return w
}

// run runs each rank's part on a goroutine of its own and waits for all of
// them; a rank without a part does nothing. Under the scheduler each part
// is bracketed by Start and Exit, so the engine decides the interleaving.
func (w *world) run(t *testing.T, parts map[int]func() error) {
	t.Helper()
	var wg sync.WaitGroup
	for r := 0; r < w.n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if w.sched != nil {
				w.sched.Start(r)
				defer w.sched.Exit(r)
			}
			if part := parts[r]; part != nil {
				if err := part(); err != nil {
					t.Errorf("rank %d: %v", r, err)
				}
			}
		}(r)
	}
	wg.Wait()
}

// recv receives rank r's next message. Under the scheduler it blocks, and
// the engine turns a message that can never come into ErrStalled;
// otherwise it gives up after recvTimeout.
func (w *world) recv(r int) (transport.Message, error) {
	ep := w.nets[r].Endpoint(r)
	if w.sched != nil {
		return ep.Recv()
	}
	deadline := time.Now().Add(recvTimeout)
	for spin := 0; ; spin++ {
		msg, ok, err := ep.TryRecv()
		switch {
		case err != nil || ok:
			return msg, err
		case time.Now().After(deadline):
			return msg, fmt.Errorf("nothing arrived within %v", recvTimeout)
		case spin < 100:
			runtime.Gosched()
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// send sends a message tagged tag, with no body, from rank from to rank to.
func (w *world) send(from, to int, tag string, posted bool) error {
	return w.nets[from].Send(transport.Message{From: from, To: to, Payload: tagged(tag, 0, 0), Posted: posted})
}

// tagOf returns a message's tag, or its payload type if it has none.
func tagOf(msg transport.Message) string {
	p, ok := msg.Payload.(taggedPayload)
	if !ok {
		return fmt.Sprintf("%T", msg.Payload)
	}
	return string(bytes.TrimRight(p.tag[:], "\x00"))
}

// expect receives len(tags) messages at rank r and checks that they come
// from rank from and carry tags, in order. With healed non-nil, each must
// also arrive after healed was set.
func (w *world) expect(r, from int, healed *atomic.Bool, tags ...string) error {
	for i, want := range tags {
		msg, err := w.recv(r)
		if err != nil {
			return fmt.Errorf("waiting for %q (%d of %d): %w", want, i+1, len(tags), err)
		}
		if got := tagOf(msg); got != want || msg.From != from || msg.To != r {
			return fmt.Errorf("delivery %d is %q from %d to %d, want %q from %d to %d", i, got, msg.From, msg.To, want, from, r)
		}
		if healed != nil && !healed.Load() {
			return fmt.Errorf("%q crossed the cut before Heal", want)
		}
	}
	return nil
}

// partition installs the same rules at every rank, as each cluster node
// applies a global partition event; heal heals every rank.
func (w *world) partition(block [][2]int, hold bool) {
	for _, r := range w.rules {
		r.SetPartition(block, hold)
	}
}

func (w *world) heal() {
	for _, r := range w.rules {
		r.Heal()
	}
}

// dropped returns how many messages the world counted as dropped.
func (w *world) dropped() (n uint64) {
	for _, ic := range w.stats {
		n += ic.Stats().MessagesDropped
	}
	return n
}

// awaitDropped waits until the world has counted want drops: a receiving
// mesh counts the frame a rule drops when its reader gets to it.
func (w *world) awaitDropped(want uint64) error {
	deadline := time.Now().Add(recvTimeout)
	for {
		got := w.dropped()
		switch {
		case got == want:
			return nil
		case got > want || time.Now().After(deadline):
			return fmt.Errorf("%d messages counted as dropped, want %d", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// settle gives frames on the wire time to reach their readers.
func (w *world) settle() {
	if w.wire {
		time.Sleep(settleTime)
	}
}

// ruleOutcome is what a receiver sees of a frame sent under a rule: held,
// it arrives at Heal ahead of the frame sent after it; dropped, it never
// arrives and is counted once.
func ruleOutcome(hold bool, severed, after string) (tags []string, drops uint64) {
	if hold {
		return []string{severed, after}, 0
	}
	return []string{after}, 1
}

// awaitRule waits until a frame sent under a rule has met it at its
// receiver: a drop is counted, a held frame has had time to arrive.
func (w *world) awaitRule(hold bool) error {
	if hold {
		w.settle()
		return nil
	}
	return w.awaitDropped(1)
}

type contractCase struct {
	name  string
	ranks int
	needs []capability
	run   func(t *testing.T, w *world)
}

// cannot returns why ic cannot run c, or "" when it can.
func (ic interconnect) cannot(c contractCase) string {
	for _, need := range c.needs {
		if why, ok := ic.lacks[need]; ok {
			return fmt.Sprintf("no %s: %s", need, why)
		}
	}
	return ""
}

// TestInterconnectContract runs every contract case against every
// interconnect that can express it.
func TestInterconnectContract(t *testing.T) {
	for _, ic := range interconnects {
		t.Run(ic.name, func(t *testing.T) {
			for _, c := range contractCases {
				if why := ic.cannot(c); why != "" {
					t.Logf("%s does not apply: %s", c.name, why)
					continue
				}
				t.Run(c.name, func(t *testing.T) { c.run(t, ic.build(t, c.ranks)) })
			}
		})
	}
}

var contractCases = []contractCase{
	{name: "fifo-concurrent-senders", ranks: 5, run: fifoConcurrentSenders},
	{name: "fifo-posted-and-blocking", ranks: 3, run: fifoPostedAndBlocking},
	{name: "rules-sever-drop", ranks: 3, run: func(t *testing.T, w *world) { rulesSever(t, w, false) }},
	{name: "rules-sever-hold", ranks: 3, run: func(t *testing.T, w *world) { rulesSever(t, w, true) }},
	{name: "rules-asymmetric-drop", ranks: 2, run: func(t *testing.T, w *world) { rulesAsymmetric(t, w, false) }},
	{name: "rules-asymmetric-hold", ranks: 2, run: func(t *testing.T, w *world) { rulesAsymmetric(t, w, true) }},
	{name: "heal-flushes-in-order", ranks: 2, run: healFlushesInOrder},
	{name: "heal-races-sends", ranks: 3, run: healRacesSends},
	{name: "sender-rule-drop", ranks: 2, needs: []capability{perRankRules}, run: func(t *testing.T, w *world) { senderRule(t, w, false) }},
	{name: "sender-rule-hold", ranks: 2, needs: []capability{perRankRules}, run: func(t *testing.T, w *world) { senderRule(t, w, true) }},
	{name: "send-to-crashed", ranks: 2, run: func(t *testing.T, w *world) { sendToDead(t, w, w.crash) }},
	{name: "send-to-departed", ranks: 2, run: func(t *testing.T, w *world) { sendToDead(t, w, w.depart) }},
	{name: "loss-after-frames", ranks: 2, needs: []capability{lossReports}, run: lossAfterFrames},
	{name: "landing", ranks: 2, needs: []capability{landing}, run: landsExpectedFrame},
}

// fifoConcurrentSenders: four ranks send to a fifth at once, posted and
// blocking sends mixed; each sender's messages arrive in send order.
func fifoConcurrentSenders(t *testing.T, w *world) {
	const senders, k = 4, 200
	parts := map[int]func() error{}
	for s := 0; s < senders; s++ {
		parts[s] = func() error {
			for i := 0; i < k; i++ {
				if err := w.send(s, senders, fmt.Sprintf("%d-%04d", s, i), i%3 != 0); err != nil {
					return err
				}
			}
			return nil
		}
	}
	parts[senders] = func() error {
		next := make([]int, senders)
		for range senders * k {
			msg, err := w.recv(senders)
			if err != nil {
				return err
			}
			var s, i int
			if _, err := fmt.Sscanf(tagOf(msg), "%d-%d", &s, &i); err != nil || s != msg.From {
				return fmt.Errorf("delivery %q from %d", tagOf(msg), msg.From)
			}
			if i != next[s] {
				return fmt.Errorf("sender %d's message %d arrived where %d was due", s, i, next[s])
			}
			next[s]++
		}
		return nil
	}
	w.run(t, parts)
}

// fifoPostedAndBlocking: rounds of posted sends to two peers, each round
// closed by a blocking send to each; every pair's messages arrive in send
// order, the blocking one after the posted ones, and none is dropped.
func fifoPostedAndBlocking(t *testing.T, w *world) {
	const rounds, window = 10, 32
	want := map[int][]string{}
	for round := 0; round < rounds; round++ {
		for i := 0; i < window; i++ {
			want[1+i%2] = append(want[1+i%2], fmt.Sprintf("%d-%02d", round, i))
		}
		for to := 1; to <= 2; to++ {
			want[to] = append(want[to], fmt.Sprintf("%d-b", round))
		}
	}
	w.run(t, map[int]func() error{
		0: func() error {
			for round := 0; round < rounds; round++ {
				for i := 0; i < window; i++ {
					if err := w.send(0, 1+i%2, fmt.Sprintf("%d-%02d", round, i), true); err != nil {
						return err
					}
				}
				for to := 1; to <= 2; to++ {
					if err := w.send(0, to, fmt.Sprintf("%d-b", round), false); err != nil {
						return err
					}
				}
			}
			return nil
		},
		1: func() error { return w.expect(1, 0, nil, want[1]...) },
		2: func() error { return w.expect(2, 0, nil, want[2]...) },
	})
	if d := w.dropped(); d != 0 {
		t.Fatalf("%d messages dropped between live ranks", d)
	}
}

// rulesSever: rank 2 is cut off from ranks 0 and 1, both ways. A message
// into the cut is held or dropped; a message between ranks 0 and 1 flows
// under the rule; after Heal a held message arrives ahead of the next one,
// and a dropped one never does.
func rulesSever(t *testing.T, w *world, hold bool) {
	w.partition([][2]int{{0, 2}, {2, 0}, {1, 2}, {2, 1}}, hold)
	var healed atomic.Bool
	tags, drops := ruleOutcome(hold, "a", "after")
	w.run(t, map[int]func() error{
		0: func() error {
			if err := w.send(0, 2, "a", false); err != nil {
				return err
			}
			if err := w.send(0, 1, "same", false); err != nil {
				return err
			}
			if err := w.awaitRule(hold); err != nil {
				return err
			}
			if err := w.expect(0, 1, nil, "got"); err != nil {
				return err
			}
			healed.Store(true)
			w.heal()
			return w.send(0, 2, "after", false)
		},
		1: func() error {
			if err := w.expect(1, 0, nil, "same"); err != nil {
				return err
			}
			return w.send(1, 0, "got", false)
		},
		2: func() error { return w.expect(2, 0, &healed, tags...) },
	})
	if d := w.dropped(); d != drops {
		t.Fatalf("%d messages counted as dropped, want %d", d, drops)
	}
}

// rulesAsymmetric: only 1 -> 0 is severed. Rank 1 still hears rank 0, and
// its answer is held or dropped until Heal.
func rulesAsymmetric(t *testing.T, w *world, hold bool) {
	w.partition([][2]int{{1, 0}}, hold)
	var healed atomic.Bool
	tags, drops := ruleOutcome(hold, "rev", "after")
	w.run(t, map[int]func() error{
		0: func() error {
			if err := w.send(0, 1, "fwd", false); err != nil {
				return err
			}
			return w.expect(0, 1, &healed, tags...)
		},
		1: func() error {
			if err := w.expect(1, 0, nil, "fwd"); err != nil {
				return err
			}
			if err := w.send(1, 0, "rev", false); err != nil {
				return err
			}
			if err := w.awaitRule(hold); err != nil {
				return err
			}
			healed.Store(true)
			w.heal()
			return w.send(1, 0, "after", false)
		},
	})
	if d := w.dropped(); d != drops {
		t.Fatalf("%d messages counted as dropped, want %d", d, drops)
	}
}

// healFlushesInOrder: rounds of a hold rule on both directions, posted and
// blocking sends under it, then Heal and one more send. Nothing of a round
// arrives before its Heal, and all of it arrives in send order, ahead of
// the send after the Heal.
func healFlushesInOrder(t *testing.T, w *world) {
	const rounds, k = 3, 50
	var healed atomic.Int32 // rounds healed
	w.run(t, map[int]func() error{
		0: func() error {
			for round := 0; round < rounds; round++ {
				w.partition([][2]int{{0, 1}, {1, 0}}, true)
				for i := 0; i < k; i++ {
					if err := w.send(0, 1, fmt.Sprintf("%d-%02d", round, i), i%2 == 0); err != nil {
						return err
					}
				}
				w.settle()
				healed.Store(int32(round + 1))
				w.heal()
				if err := w.send(0, 1, fmt.Sprintf("%d-after", round), false); err != nil {
					return err
				}
			}
			return nil
		},
		1: func() error {
			for round := 0; round < rounds; round++ {
				for i := 0; i <= k; i++ {
					want := fmt.Sprintf("%d-%02d", round, i)
					if i == k {
						want = fmt.Sprintf("%d-after", round)
					}
					if err := w.expect(1, 0, nil, want); err != nil {
						return err
					}
					if healed.Load() <= int32(round) {
						return fmt.Errorf("%q arrived before its round's Heal", want)
					}
				}
			}
			return nil
		},
	})
	if d := w.dropped(); d != 0 {
		t.Fatalf("%d messages dropped under hold rules", d)
	}
}

// healRacesSends: rank 0 sends under a hold rule toward rank 1, then keeps
// sending while rank 2 heals, until it hears the Heal is done. The held
// messages arrive first, in order, and every message sent around the Heal
// follows them in order.
func healRacesSends(t *testing.T, w *world) {
	const held, extra, most = 1000, 20, 99999
	w.partition([][2]int{{0, 1}}, true)
	w.run(t, map[int]func() error{
		0: func() error {
			for i := 0; i < held; i++ {
				if err := w.send(0, 1, fmt.Sprintf("h%04d", i), i%2 == 0); err != nil {
					return err
				}
			}
			w.settle()
			if err := w.send(0, 2, "go", false); err != nil {
				return err
			}
			ep, left := w.nets[0].Endpoint(0), -1
			for i := 0; left != 0; i++ {
				if i > most {
					return fmt.Errorf("no word of the Heal after %d sends", i)
				}
				if err := w.send(0, 1, fmt.Sprintf("x%05d", i), i%2 == 0); err != nil {
					return err
				}
				if left > 0 {
					left--
				} else if msg, ok, err := ep.TryRecv(); err != nil {
					return err
				} else if ok && tagOf(msg) == "healed" {
					left = extra
				}
			}
			return w.send(0, 1, "end", false)
		},
		1: func() error {
			for i := 0; i < held; i++ {
				if err := w.expect(1, 0, nil, fmt.Sprintf("h%04d", i)); err != nil {
					return err
				}
			}
			for i := 0; ; i++ {
				msg, err := w.recv(1)
				if err != nil {
					return err
				}
				if tagOf(msg) == "end" {
					return nil
				}
				if want := fmt.Sprintf("x%05d", i); tagOf(msg) != want {
					return fmt.Errorf("delivery %q where %q was due", tagOf(msg), want)
				}
			}
		},
		2: func() error {
			if err := w.expect(2, 0, nil, "go"); err != nil {
				return err
			}
			w.heal()
			return w.send(2, 0, "healed", false)
		},
	})
	if d := w.dropped(); d != 0 {
		t.Fatalf("%d messages dropped under a hold rule", d)
	}
}

// senderRule: a rule in force only where a message leaves does nothing;
// the same rule where it arrives holds or drops it, and the receiver, not
// the sender, counts a drop.
func senderRule(t *testing.T, w *world, hold bool) {
	block := [][2]int{{0, 1}}
	w.rules[0].SetPartition(block, hold)
	var healed atomic.Bool
	tags, drops := ruleOutcome(hold, "b", "after")
	w.run(t, map[int]func() error{
		0: func() error {
			if err := w.send(0, 1, "a", false); err != nil {
				return err
			}
			if err := w.expect(0, 1, nil, "ack"); err != nil {
				return err
			}
			w.rules[1].SetPartition(block, hold)
			if err := w.send(0, 1, "b", false); err != nil {
				return err
			}
			if err := w.awaitRule(hold); err != nil {
				return err
			}
			healed.Store(true)
			w.heal()
			return w.send(0, 1, "after", false)
		},
		1: func() error {
			if err := w.expect(1, 0, nil, "a"); err != nil {
				return fmt.Errorf("a rule at the sender only acted: %w", err)
			}
			if err := w.send(1, 0, "ack", false); err != nil {
				return err
			}
			return w.expect(1, 0, &healed, tags...)
		},
	})
	if d := w.dropped(); d != drops {
		t.Fatalf("%d messages counted as dropped, want %d", d, drops)
	}
	if d := w.nets[0].Stats().MessagesDropped; d != 0 {
		t.Fatalf("the sender counted %d drops", d)
	}
}

// sendToDead: after its peer is stopped, a blocking send returns without
// error, its message counted as dropped, and a posted one is counted too.
func sendToDead(t *testing.T, w *world, stop func(r int)) {
	w.run(t, map[int]func() error{
		0: func() error {
			if err := w.send(0, 1, "warm", false); err != nil {
				return err
			}
			if err := w.expect(0, 1, nil, "ack"); err != nil {
				return err
			}
			stop(1)
			w.settle()
			dropped := func() uint64 { return w.nets[0].Stats().MessagesDropped }
			before, start := dropped(), time.Now()
			if err := w.send(0, 1, "late", false); err != nil {
				return fmt.Errorf("a send to a dead peer failed: %w", err)
			}
			if d := dropped() - before; d != 1 {
				return fmt.Errorf("a send to a dead peer returned with %d drops counted, want 1", d)
			}
			if err := w.send(0, 1, "later", true); err != nil {
				return fmt.Errorf("a post to a dead peer failed: %w", err)
			}
			for dropped()-before < 2 {
				if time.Since(start) > recvTimeout {
					return fmt.Errorf("a post to a dead peer not counted as dropped within %v", recvTimeout)
				}
				time.Sleep(time.Millisecond)
			}
			return nil
		},
		1: func() error {
			if err := w.expect(1, 0, nil, "warm"); err != nil {
				return err
			}
			return w.send(1, 0, "ack", false)
		},
	})
}

// lossAfterFrames: a peer sends a burst of frames, one longer than a
// reader's buffer among them, and crashes. Its loss is reported after
// every one of them, and nothing follows the report.
func lossAfterFrames(t *testing.T, w *world) {
	const k, big = 200, 100
	frames := make([]taggedPayload, k)
	for i := range frames {
		frames[i] = tagged(fmt.Sprintf("f%03d", i), 0, 0)
	}
	frames[big] = tagged("big", readBuffer+1000, 7)
	w.run(t, map[int]func() error{
		0: func() error {
			for _, p := range frames {
				if err := w.nets[0].Send(transport.Message{From: 0, To: 1, Payload: p}); err != nil {
					return err
				}
			}
			w.crash(0)
			return nil
		},
		1: func() error {
			rep, err := w.lost(1)
			if err != nil {
				return err
			}
			if rep.from != 0 || len(rep.before) != k {
				return fmt.Errorf("the loss of %d was reported after %d frames, want the loss of 0 after %d", rep.from, len(rep.before), k)
			}
			for i, msg := range rep.before {
				if p, ok := msg.Payload.(taggedPayload); !ok || p.tag != frames[i].tag || !bytes.Equal(p.body, frames[i].body) {
					return fmt.Errorf("delivery %d before the report is %q, want frame %d", i, tagOf(msg), i)
				}
			}
			w.settle()
			if n := w.nets[1].Endpoint(1).Pending(); n != 0 {
				return fmt.Errorf("%d deliveries after the loss report", n)
			}
			return nil
		},
	})
}

// landsExpectedFrame: with an answer from rank 0 expected at rank 1, a
// frame with another head or another length takes the normal path, the
// matching frame is read into the named buffer and delivered with it, and
// a duplicate of it takes the normal path again.
func landsExpectedFrame(t *testing.T, w *world) {
	const n = 100_000
	e := &transport.Expectation{From: 0, Reply: tagged("answer-1", n, 0)}
	if !w.lander(1).Expect(e) {
		t.Fatal("Expect refused")
	}
	_, dst := e.Reply.WireParts()
	sent := []taggedPayload{tagged("answer-2", n, 2), tagged("answer-1", n+8, 3), tagged("answer-1", n, 7), tagged("answer-1", n, 9)}
	w.run(t, map[int]func() error{
		0: func() error {
			for _, p := range sent {
				if err := w.nets[0].Send(transport.Message{From: 0, To: 1, Payload: p}); err != nil {
					return err
				}
			}
			return nil
		},
		1: func() error {
			for i, want := range sent {
				msg, err := w.recv(1)
				if err != nil {
					return err
				}
				p, ok := msg.Payload.(taggedPayload)
				if !ok || p.tag != want.tag || !bytes.Equal(p.body, want.body) {
					return fmt.Errorf("delivery %d is %q with other bytes", i, tagOf(msg))
				}
				if landed := &p.body[0] == &dst[0]; landed != (i == 2) {
					return fmt.Errorf("delivery %d landed in the named buffer: %v, want %v", i, landed, i == 2)
				}
			}
			return nil
		},
	})
	if !e.Cancel() || !bytes.Equal(dst, bytes.Repeat([]byte{7}, n)) {
		t.Fatal("the landed buffer is still claimed, or another frame wrote it")
	}
}
