// Fixture for c3lockblock. write/redial reconstruct the PR 4 incident: the
// per-peer connection lock held across a TCP redial, so every sender to the
// peer — heartbeats included — queued behind the dial stall. The dial sits
// one call below the lock, which is exactly what the package-local
// transitive may-block propagation exists to catch.
package lockblock

import (
	"net"
	"sync"
	"time"
)

type peer struct {
	mu   sync.Mutex
	conn net.Conn
	ch   chan int
}

// write is the historical redialBackoff shape (PR 4).
func (p *peer) write(frame []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil {
		p.redial() // want `call to redial while p\.mu is held .*redial may block: net\.Dial`
	}
}

func (p *peer) redial() {
	for i := 0; i < 3; i++ {
		c, err := net.Dial("tcp", "127.0.0.1:0")
		if err == nil {
			p.conn = c
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Direct blocking operations under the lock; the same operations after the
// Unlock are fine.
func (p *peer) direct() {
	p.mu.Lock()
	c, _ := net.Dial("tcp", "127.0.0.1:0") // want `net\.Dial while p\.mu is held`
	_ = c
	p.mu.Unlock()
	c2, _ := net.Dial("tcp", "127.0.0.1:0")
	_ = c2
}

func (p *peer) send() {
	p.mu.Lock()
	p.ch <- 1 // want `channel send while p\.mu is held`
	p.mu.Unlock()
}

func (p *peer) wait(wg *sync.WaitGroup) {
	p.mu.Lock()
	wg.Wait() // want `sync\.WaitGroup\.Wait while p\.mu is held`
	p.mu.Unlock()
}

func (p *peer) connWrite(frame []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.conn.Write(frame) // want `Write on net\.Conn p\.conn while p\.mu is held`
}

func (p *peer) connWritev(head, body []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	bufs := net.Buffers{head, body}
	bufs.WriteTo(p.conn) // want `net\.Buffers\.WriteTo while p\.mu is held`
}

func (p *peer) selectBlocks() {
	p.mu.Lock()
	select { // want `blocking select while p\.mu is held`
	case v := <-p.ch:
		_ = v
	}
	p.mu.Unlock()
}

// A select with a default case polls instead of blocking.
func (p *peer) pollOK() {
	p.mu.Lock()
	select {
	case v := <-p.ch:
		_ = v
	default:
	}
	p.mu.Unlock()
}

// sync.Cond.Wait is the one sanctioned wait-under-lock: the protocol
// requires holding L and Wait releases it while parked.
func (p *peer) condOK(c *sync.Cond) {
	p.mu.Lock()
	c.Wait()
	p.mu.Unlock()
}

// A goroutine launched under the lock runs concurrently, not under it.
func (p *peer) goStmtOK() {
	p.mu.Lock()
	go func() {
		p.ch <- 1
	}()
	p.mu.Unlock()
}

// The escape hatch for deliberate block-under-lock sites (tcp.Mesh's
// per-peer FIFO framing); the harness asserts this lands in Suppressed.
func (p *peer) framed(frame []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.conn.Write(frame) //c3lint:allow lockblock fixture: per-peer FIFO framing requires the write under the lock
}
