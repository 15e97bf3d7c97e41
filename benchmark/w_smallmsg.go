package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"c3/internal/ckpt"
	"c3/internal/mpi"
	"c3/internal/stable"
	"c3/internal/transport/tcp"
)

// smallmsg-tcp: the one place small frames over real sockets dominate. Two
// ranks in this process, each with its own tcp.Mesh + mpi.World +
// ckpt.Layer (the stack cluster.RunNode builds), over loopback. No
// checkpoint bytes move.
//
//	op  = one 64 B ping-pong round trip
//	alt = one window: 32 x 1 KiB Isend + Waitall, then the receiver's ack
const (
	pingBytes   = 64
	streamBytes = 1024
	streamWin   = 32

	tagCmd, tagPing, tagPong, tagStream, tagAck = 1, 2, 3, 4, 5
	cmdQuit, cmdPing, cmdStream                 = 0, 1, 2
)

type smallInst struct {
	sz     sizes
	meshes []*tcp.Mesh
	layers [2]*ckpt.Layer
	ping   []byte // seeded message contents
	stream []byte
	server sync.WaitGroup
}

func setupSmallMsg(seed int64, sz sizes) (instance, error) {
	meshes, err := newMeshes(2)
	if err != nil {
		return nil, err
	}
	s := &smallInst{sz: sz, meshes: meshes, ping: make([]byte, pingBytes), stream: make([]byte, streamBytes)}
	rng := rand.New(rand.NewSource(int64(splitmix64(seed, 1))))
	rng.Read(s.ping)
	rng.Read(s.stream)
	// ckpt.New is collective (it duplicates the world communicator).
	var wg sync.WaitGroup
	var errs [2]error
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			world := mpi.NewWorld(2, mpi.WithInterconnect(s.meshes[r]))
			s.layers[r], errs[r] = ckpt.New(world.Proc(r), ckpt.Config{Store: stable.NewMemStore()})
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.closeMeshes()
			return nil, fmt.Errorf("smallmsg-tcp: layer bring-up: %w", err)
		}
	}
	s.server.Add(1)
	go s.serve()
	// Warm-up: both directions' connections, both message shapes.
	warm := newPass()
	s.pingPhase(nil, warm, 10*sz.pingBatch)
	s.streamPhase(nil, warm, 4*sz.streamN)
	if warm.failed > 0 {
		s.close()
		return nil, fmt.Errorf("smallmsg-tcp: warm-up: %s", warm.failures[0])
	}
	return s, nil
}

// serve is rank 1: it executes the client's commands until told to quit.
func (s *smallInst) serve() {
	defer s.server.Done()
	w := s.layers[1].World()
	cmd := make([]byte, 16)
	ping := make([]byte, pingBytes)
	msg := make([]byte, streamBytes)
	ack := make([]byte, 8)
	for {
		if _, err := w.RecvBytes(cmd, 0, tagCmd); err != nil {
			return // the client sees the same failure on its side of the mesh
		}
		n := int(binary.LittleEndian.Uint64(cmd[8:]))
		switch binary.LittleEndian.Uint64(cmd) {
		case cmdQuit:
			return
		case cmdPing:
			for i := 0; i < n; i++ {
				if _, err := w.RecvBytes(ping, 0, tagPing); err != nil {
					return // the client sees the same failure on its side of the mesh
				}
				if err := w.SendBytes(ping, 0, tagPong); err != nil {
					return // the client sees the same failure on its side of the mesh
				}
			}
		case cmdStream:
			for i := 0; i < n; i++ {
				var sum uint64
				for k := 0; k < streamWin; k++ {
					if _, err := w.RecvBytes(msg, 0, tagStream); err != nil {
						return // the client sees the same failure on its side of the mesh
					}
					sum += stable.SectionSum(msg)
				}
				binary.LittleEndian.PutUint64(ack, sum)
				if err := w.SendBytes(ack, 0, tagAck); err != nil {
					return // the client sees the same failure on its side of the mesh
				}
			}
		}
	}
}

func (s *smallInst) command(kind, n int) error {
	cmd := make([]byte, 16)
	binary.LittleEndian.PutUint64(cmd, uint64(kind))
	binary.LittleEndian.PutUint64(cmd[8:], uint64(n))
	return s.layers[0].World().SendBytes(cmd, 1, tagCmd)
}

// pingPhase times n round trips; every echo is compared with what was sent.
func (s *smallInst) pingPhase(tr *tracer, p *pass, n int) {
	w := s.layers[0].World()
	if err := s.command(cmdPing, n); err != nil {
		p.attempt(1)
		p.fail("smallmsg-tcp: command: %v", err)
		return
	}
	echo := make([]byte, pingBytes)
	for i := 0; i < n; i++ {
		p.attempt(1)
		sp := tr.begin("op", "rtt", -1, tr.nextCycle())
		begin := time.Now()
		err := w.SendBytes(s.ping, 1, tagPing)
		if err == nil {
			_, err = w.RecvBytes(echo, 1, tagPong)
		}
		d := time.Since(begin)
		tr.end(sp)
		switch {
		case err != nil:
			p.fail("smallmsg-tcp: ping-pong: %v", err)
			return
		case !bytes.Equal(echo, s.ping):
			p.mismatch("smallmsg-tcp: echo differs from the message sent")
		}
		p.addOp(float64(d.Nanoseconds()) / 1e6)
	}
}

// streamPhase times n windows; the receiver's ack carries the checksum of
// what it received.
func (s *smallInst) streamPhase(tr *tracer, p *pass, n int) {
	w := s.layers[0].World()
	if err := s.command(cmdStream, n); err != nil {
		p.attempt(1)
		p.fail("smallmsg-tcp: command: %v", err)
		return
	}
	want := uint64(streamWin) * stable.SectionSum(s.stream)
	ack := make([]byte, 8)
	ids := make([]int, streamWin)
	for i := 0; i < n; i++ {
		p.attempt(1)
		sp := tr.begin("alt", "window", -1, tr.nextCycle())
		begin := time.Now()
		var err error
		for k := 0; k < streamWin && err == nil; k++ {
			ids[k], err = w.Isend(s.stream, streamBytes, mpi.TypeByte, 1, tagStream)
		}
		if err == nil {
			_, err = w.Waitall(ids)
		}
		if err == nil {
			_, err = w.RecvBytes(ack, 1, tagAck)
		}
		d := time.Since(begin)
		tr.end(sp)
		switch {
		case err != nil:
			p.fail("smallmsg-tcp: stream window: %v", err)
			return
		case binary.LittleEndian.Uint64(ack) != want:
			p.mismatch("smallmsg-tcp: receiver's checksum differs from the window sent")
		}
		p.addAlt(float64(d.Nanoseconds()) / 1e6)
	}
}

func (s *smallInst) meshStats() (frames, bytes uint64) {
	for _, m := range s.meshes {
		st := m.Stats()
		frames += st.MessagesSent
		bytes += st.DeliveredPayload
	}
	return frames, bytes
}

func (s *smallInst) run(d time.Duration, tr *tracer, p *pass) {
	frames0, bytes0 := s.meshStats()
	st0 := s.layers[0].Stats()
	// Alternate short slices of the two phases so drift hits both alike.
	deadline := time.Now().Add(d)
	for slice := 0; slice < 2 || time.Now().Before(deadline); slice++ {
		s.pingPhase(tr, p, s.sz.pingBatch)
		s.streamPhase(tr, p, s.sz.streamN)
		if p.failed > 0 {
			break
		}
	}
	frames1, bytes1 := s.meshStats()
	st1 := s.layers[0].Stats()
	p.layer["tcp.frames_sent"] += float64(frames1 - frames0)
	p.layer["tcp.bytes_delivered"] += float64(bytes1 - bytes0)
	p.layer["_sends"] += float64(st1.Sends - st0.Sends)
	p.layer["_piggyback_bytes"] += float64(st1.PiggybackBytes - st0.PiggybackBytes)
	p.layer["ckpt.piggyback_bytes_per_msg"] = ratio(p.layer["_piggyback_bytes"], p.layer["_sends"])
	p.layer["stream_msgs_per_s"] = ratio(streamWin*1000, median(p.alt))
}

func (s *smallInst) closeMeshes() {
	for _, m := range s.meshes {
		m.Close()
	}
}

func (s *smallInst) close() {
	_ = s.command(cmdQuit, 0) // a dead mesh fails this; Close below unblocks the server anyway
	s.closeMeshes()
	s.server.Wait()
	for _, l := range s.layers {
		_ = l.Close(false) // no async commit pipeline was configured: nothing to drain
	}
}
