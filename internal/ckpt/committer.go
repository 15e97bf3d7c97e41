package ckpt

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"c3/internal/stable"
	"c3/internal/trace"
)

// This file implements the line writer: every recovery line reaches stable
// storage through the rank's committer, and Policy.AsyncCommit sets its
// only parameter, the pipeline depth.
//
// At depth zero (the paper's chkpt_StartCheckpoint/chkpt_CommitCheckpoint,
// Figure 5) begin opens the line at the store, each section is written
// there as it is produced — the application state as views of registered
// memory, since the application is blocked until the store has it — and
// commit finishes the line inline.
//
// At asyncPipelineDepth (the paper's Section 5 future work, after Kohl et
// al.'s asynchronous write-out argument) begin starts an in-memory capture,
// each section is copied into it, and commit queues the line: the
// application resumes as soon as local capture is done. A worker goroutine,
// or under the virtual schedule engine the rank's own protocol operations
// (pump), takes lines off the FIFO queue and finishes them off the critical
// path. One line may be at the store while the next waits behind it; a
// third blocks at commit until the oldest retires, bounding memory to two
// captured lines. Because lines leave the queue in order, line k is always
// durably committed before line k+1's store commit begins — the commit
// fence that preserves the paper's recovery-line ordering: recovery can
// never observe line k+1 without line k on the same rank.
//
// In both modes one finish step commits the line and counts its
// footprint, and one retire step garbage-collects below the line's floor:
// inline as soon as every rank has started the line, for a queued line
// once it has committed.

// namedSection is one checkpoint section awaiting write-out.
type namedSection struct {
	name string
	data []byte
}

// asyncPipelineDepth is the most protocol-committed lines the pipeline can
// hold before they are durable: one in flight at the store plus one in the
// double buffer. A fail-stop failure discards all of them, so a rank's
// durable watermark can trail its epoch by asyncPipelineDepth+1 lines —
// the garbage-collection floor in enterRecvOnlyLog accounts for that.
const asyncPipelineDepth = 2

// commitJob is one recovery line on its way to the store.
type commitJob struct {
	line uint64
	// ck is the line open at the store: from begin on at depth zero, from
	// finish on for a captured line.
	ck stable.Checkpoint
	// sections is what finish still has to write: a captured line's copies
	// of every section, then the commit-time sections.
	sections []namedSection
	// bytes is the line's raw section bytes, the StoredBytes fallback for
	// stores that do not report a footprint.
	bytes uint64
	// retireBelow, when positive, garbage-collects this rank's committed
	// versions below it once a queued line has committed.
	retireBelow int
	// queued is the pump count when the line joined the virtual pipeline.
	queued int64
}

// committer is the per-rank line writer.
type committer struct {
	store stable.Store
	rank  int
	// clock is the layer's injected time source: pipeline timing STATS are
	// deterministic under the virtual scheduler too (c3determinism).
	clock func() time.Time
	// depth is how many committed lines may wait for the store: zero
	// finishes every line inline, asyncPipelineDepth queues them.
	depth int
	// virtual selects the deterministic schedule engine's pipeline: no
	// worker goroutine exists, and queued lines are finished by pump, which
	// the layer calls from the rank's own goroutine at protocol operations.
	// The pipeline's visible semantics (bounded depth, lines lost on abort,
	// durable after drain) are the worker's, but WHEN a line becomes
	// durable is a pure function of the schedule instead of worker timing.
	virtual bool

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*commitJob // committed lines not yet taken to the store
	busy    bool         // a line taken off the queue is being finished
	pumps   int64
	aborted bool  // fail-stop: discard all outstanding work
	closed  bool  // the worker exits once the queue is empty
	err     error // sticky first store error of a queued line

	// Counters merged into the layer's Stats.
	asyncCommits  uint64
	storedBytes   uint64        // stable-storage footprint of committed lines
	writeDuration time.Duration // time the pipeline spent at the store
	stallDuration time.Duration // time the app blocked on the full pipeline
}

// virtualCommitAge is how many pump calls (protocol operations) a line
// stays in the virtual pipeline before pump writes it out — long enough
// that fail-stop failures routinely catch lines mid-pipeline, exactly the
// window the real worker exposes.
const virtualCommitAge = 24

func newCommitter(store stable.Store, rank int, clock func() time.Time, async, virtual bool) *committer {
	c := &committer{store: store, rank: rank, clock: clock, virtual: virtual}
	c.cond = sync.NewCond(&c.mu)
	if async {
		c.depth = asyncPipelineDepth
		if !virtual {
			go c.run()
		}
	}
	return c
}

// begin opens a line: at the store at depth zero, as an empty capture
// otherwise.
func (c *committer) begin(line uint64) (*commitJob, error) {
	job := &commitJob{line: line}
	if c.depth > 0 {
		return job, nil
	}
	ck, err := c.store.Begin(c.rank, int(line))
	if err != nil {
		return nil, fmt.Errorf("ckpt: begin checkpoint %d: %w", line, err)
	}
	job.ck = ck
	return job, nil
}

// write adds a section whose contents are the concatenation of parts. A
// line open at the store writes the parts where they lie, a one-part
// section through WriteSection; a capture copies them, because the
// application moves on before the pipeline writes them out.
func (j *commitJob) write(name string, parts ...[]byte) error {
	for _, p := range parts {
		j.bytes += uint64(len(p))
	}
	switch {
	case j.ck == nil:
		j.sections = append(j.sections, namedSection{name: name, data: bytes.Join(parts, nil)})
		return nil
	case len(parts) == 1:
		return j.ck.WriteSection(name, parts[0])
	default:
		return j.ck.WriteParts(name, parts)
	}
}

// commit ends a line with its commit-time sections, which the caller hands
// over. At depth zero the line is finished here. Otherwise it joins the
// queue, and the caller waits only while depth lines are outstanding.
func (c *committer) commit(job *commitJob, tail ...namedSection) error {
	for _, s := range tail {
		job.bytes += uint64(len(s.data))
	}
	job.sections = append(job.sections, tail...)
	if c.depth == 0 {
		_, err := c.finish(job)
		return err
	}
	begin := c.clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.aborted && c.err == nil && c.outstanding() >= c.depth {
		c.wait()
	}
	if !c.virtual {
		c.stallDuration += c.clock().Sub(begin)
	}
	if c.aborted {
		return nil // fail-stop already declared; the line is lost by design
	}
	if c.err != nil {
		return c.err
	}
	job.queued = c.pumps
	c.queue = append(c.queue, job)
	c.cond.Broadcast()
	return nil
}

// outstanding is the number of committed lines not yet durable. Called
// with c.mu held.
func (c *committer) outstanding() int {
	if c.busy {
		return len(c.queue) + 1
	}
	return len(c.queue)
}

// wait lets the pipeline move one step: it waits for the worker, or under
// the virtual engine finishes the oldest line itself. Called with c.mu
// held.
func (c *committer) wait() {
	if c.virtual {
		c.finishOldest()
	} else {
		c.cond.Wait()
	}
}

// run is the worker: it finishes lines in FIFO order, so line k commits at
// the store strictly before line k+1 (the commit fence).
func (c *committer) run() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for len(c.queue) == 0 && !c.closed {
			c.cond.Wait()
		}
		if len(c.queue) == 0 {
			return
		}
		c.finishOldest()
	}
}

// finishOldest takes the oldest queued line to the store on the calling
// goroutine. It is called with c.mu held and holds it again on return.
func (c *committer) finishOldest() {
	job := c.queue[0]
	c.queue[0] = nil
	c.queue = c.queue[1:]
	c.busy = true
	c.mu.Unlock()
	committed, err := c.finish(job)
	c.mu.Lock()
	c.busy = false
	if err != nil && c.err == nil && !c.aborted {
		c.err = err
	}
	if committed {
		c.asyncCommits++
	}
	c.cond.Broadcast()
}

// stopped reports whether the pipeline must discard further lines: after a
// fail-stop abort, or after a store error — committing line k+1 once line
// k failed would leave a gap the fence forbids.
func (c *committer) stopped() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aborted || c.err != nil
}

// finish takes a line the rest of the way: it opens a captured line at the
// store, writes the sections still pending, commits, counts the line's
// footprint and retires the versions below a queued line's floor. It
// checks for an abort between steps, so a fail-stop failure mid-commit
// leaves the version uncommitted. committed reports whether the line
// became durable — a discarded line is not an error, but it must not
// advance the durable watermark.
func (c *committer) finish(job *commitJob) (committed bool, err error) {
	if c.stopped() {
		return false, nil
	}
	begin := c.clock()
	sp := trace.Default().Begin(int32(c.rank), trace.KindCommit, 0, job.line)
	defer func() {
		if committed {
			sp.End(job.bytes)
		} else {
			sp.End(0)
		}
		if c.depth > 0 {
			c.mu.Lock()
			c.writeDuration += c.clock().Sub(begin)
			c.mu.Unlock()
		}
	}()
	if job.ck == nil {
		if job.ck, err = c.store.Begin(c.rank, int(job.line)); err != nil {
			return false, fmt.Errorf("ckpt: begin checkpoint %d: %w", job.line, err)
		}
	}
	for _, s := range job.sections {
		if c.stopped() {
			return false, job.ck.Abort()
		}
		if err := job.ck.WriteSection(s.name, s.data); err != nil {
			_ = job.ck.Abort()
			return false, fmt.Errorf("ckpt: write section %q of checkpoint %d: %w", s.name, job.line, err)
		}
	}
	if c.stopped() {
		return false, job.ck.Abort()
	}
	if err := job.ck.Commit(); err != nil {
		return false, fmt.Errorf("ckpt: commit checkpoint %d: %w", job.line, err)
	}
	stored := job.bytes
	if sz, ok := job.ck.(stable.StoredSizer); ok {
		stored = uint64(sz.StoredSize())
	}
	c.mu.Lock()
	c.storedBytes += stored
	c.mu.Unlock()
	if job.retireBelow > 0 {
		c.retire(job.retireBelow)
	}
	return true, nil
}

// setFloor gives a line its garbage-collection floor, set once every rank
// has started the line: no recovery can need a version below it again.
// Inline, those versions go at once, while the application is blocked in
// the pragma anyway and the line's own section files sync in the
// background. A queued line carries its floor along, and finish retires
// below it after the line commits.
func (c *committer) setFloor(job *commitJob, floor int) {
	if c.depth > 0 {
		job.retireBelow = floor
		return
	}
	c.retire(floor)
}

// retire garbage-collects this rank's versions below floor. It is best
// effort: a failed retire leaves stale versions behind, which recovery
// never reads, and must not fail a line.
func (c *committer) retire(floor int) {
	_ = c.store.Retire(c.rank, floor) //c3lint:allow commiterr best-effort GC; stale versions below the floor are never read
}

// pump advances the virtual pipeline: called by the layer at protocol
// operations, it finishes lines that have aged past virtualCommitAge pumps.
// A no-op for the other modes.
func (c *committer) pump() error {
	if !c.virtual {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		c.pumps++
		if c.aborted || len(c.queue) == 0 || c.pumps-c.queue[0].queued < virtualCommitAge {
			return nil
		}
		if c.finishOldest(); c.err != nil {
			return c.err
		}
	}
}

// drain blocks until every committed line is durable (or the pipeline was
// aborted) and returns the first store error. It is the commit fence
// exposed to Restore, Sync and the runtime's end-of-attempt teardown.
func (c *committer) drain() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.aborted && c.err == nil && c.outstanding() > 0 {
		c.wait()
	}
	return c.err
}

// abort models the rank's fail-stop failure: all outstanding (not yet
// durable) lines are discarded, and the call returns only when the
// pipeline has stopped touching the store — so the runtime can wipe
// node-local storage without a racing write resurrecting data.
func (c *committer) abort() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.aborted = true
	c.queue = nil
	// The line being finished notices the flag between store calls.
	for c.busy {
		c.cond.Wait()
	}
}

// close stops the worker after a final drain (or abort). The layer must
// not commit afterwards.
func (c *committer) close() {
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
}
