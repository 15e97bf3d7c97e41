package detect

// Membership entry and exit: a replacement or spare slot's hello until it
// is admitted, the survivors' answer to it, and graceful drain requests.

import (
	"fmt"
	"time"
)

// Join is called by a freshly respawned replacement process (its slot is
// still a member — death does not remove membership): it broadcasts hello
// until a survivor's state response raises the local epoch past the boot
// value, then returns the adopted epoch. Survivors react to the hello by
// marking this rank alive again; the hello itself renews its lease.
func (d *Detector) Join(timeout time.Duration) (uint64, error) {
	boot := d.Epoch()
	return d.helloUntil(timeout, func() bool { return d.Epoch() > boot },
		"no survivor answered")
}

// JoinNew is called by a spare slot entering an existing world for the
// first time: it broadcasts hello (which survivors treat as a join
// request, because the sender is not a member) until an epoch agreement
// admits it to the membership, then returns the admitting epoch. The
// coordinator folds the join into its next proposal, so admission rides
// the same two-phase commit as a failure — a grow IS an epoch transition.
func (d *Detector) JoinNew(timeout time.Duration) (uint64, error) {
	return d.helloUntil(timeout, func() bool { return d.Members().Contains(d.self) },
		"membership never admitted us")
}

// helloUntil broadcasts hello every heartbeat interval until admitted()
// holds. It re-checks admitted() the moment the epoch or the membership
// changes, so a join returns as soon as the state snapshot lands.
func (d *Detector) helloUntil(timeout time.Duration, admitted func() bool, what string) (uint64, error) {
	deadline := d.clock().Add(timeout)
	tick := time.NewTicker(d.interval)
	defer tick.Stop()
	for hello := true; ; {
		d.mu.Lock()
		changed := d.changed
		d.mu.Unlock()
		if admitted() {
			return d.Epoch(), nil
		}
		if hello {
			d.helloAll()
		}
		if d.clock().After(deadline) {
			return 0, fmt.Errorf("detect: rank %d join timed out after %v (%s)", d.self, timeout, what)
		}
		select {
		case <-d.done:
			return 0, fmt.Errorf("detect: closed during join")
		case <-changed:
			hello = false
		case <-tick.C:
			hello = true
		}
	}
}

// helloAll broadcasts hello to every other slot.
func (d *Detector) helloAll() {
	hello := encodeHello()
	for q := 0; q < d.n; q++ {
		if q != d.self {
			d.send(q, hello)
		}
	}
}

// Drain requests a graceful shrink: remove target from the membership at
// the next epoch agreement. The request is gossiped to the live members
// every tick until a commit settles it (or the target stops being a
// member some other way). Draining self is allowed — the OnDrained
// callback fires once the removal commits.
func (d *Detector) Drain(target int) error {
	d.mu.Lock()
	if !d.members.Contains(target) {
		cur := d.members
		d.mu.Unlock()
		return fmt.Errorf("detect: drain target %d is not a member (%s)", target, cur)
	}
	d.pendingLeave[target] = true
	d.mu.Unlock()
	d.driveProposal()
	return nil
}

// handleHello marks a (re)joining member alive and answers with the
// current membership snapshot. A hello from a slot that is NOT a member
// is a join request: it is recorded for the coordinator to fold into the
// next epoch agreement, and answered with the snapshot so the newcomer
// can adopt the world's state while it waits for admission.
func (d *Detector) handleHello(from int) {
	d.mu.Lock()
	wantJoin := false
	if !d.members.Contains(from) {
		if !d.pendingJoin[from] {
			d.logf("rank %d: slot %d asks to join (hello from non-member)", d.self, from)
		}
		d.pendingJoin[from] = true
		wantJoin = true
	}
	if d.dead[from] {
		delete(d.dead, from)
		d.logf("rank %d: rank %d rejoined (hello)", d.self, from)
	}
	delete(d.suspected, from)
	epoch := d.epoch
	dead := setToSlice(d.dead)
	members := d.members.Members()
	fence := d.refenceLocked()
	d.mu.Unlock()
	if fence != nil {
		fence()
	}
	d.send(from, encodeState(epoch, dead, members))
	if wantJoin {
		d.driveProposal()
	}
}
