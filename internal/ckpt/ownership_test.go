package ckpt

import (
	"bytes"
	"fmt"
	"testing"

	"c3/internal/mpi"
)

// TestWrappedMessagesOwnTheirBytes: the in-memory interconnect hands a
// message's bytes to the receiver by reference, so a message that shared
// its sender's buffer would show here. The sender overwrites its buffer as
// soon as Send, Isend or a wrapped Bcast returns, and only then tells the
// receiver to take the message, with a go message that carries the
// overwritten bytes: a message sharing a buffer with a later one shows
// too. Every receive sees the bytes as they were sent: a blocking Recv, an
// Irecv posted before the message arrived and one posted after, and the
// Bcast.
func TestWrappedMessagesOwnTheirBytes(t *testing.T) {
	world := mpi.NewWorld(2)
	defer world.Shutdown()
	layers := newLayers(t, world, 2)
	const size, tagData, tagReady, tagGo = 1 << 10, 1, 2, 3
	sent := func(c int) []byte { return bytes.Repeat([]byte{byte('a' + c)}, size) }
	errc := make(chan error, 1)
	go func() {
		w := layers[1].World()
		got, goMsg := make([]byte, size), make([]byte, size)
		check := func(c int, err error) error {
			if err == nil && !bytes.Equal(got, sent(c)) {
				err = fmt.Errorf("received %q..., sent %q...", got[:4], sent(c)[:4])
			}
			if err != nil {
				return fmt.Errorf("case %d: %w", c, err)
			}
			clear(got)
			return nil
		}
		err := func() error {
			// Case 0: a blocking Recv, after the overwrite.
			if _, err := w.RecvBytes(goMsg, 0, tagGo); err != nil {
				return err
			}
			_, err := w.Recv(got, size, mpi.TypeByte, 0, tagData)
			if err := check(0, err); err != nil {
				return err
			}
			// Case 1: an Irecv posted before the message arrives. The go
			// message behind it completes the underlying receive; the
			// payload is unpacked at Wait.
			id, err := w.Irecv(got, size, mpi.TypeByte, 0, tagData)
			if err != nil {
				return err
			}
			if err := w.SendBytes(nil, 0, tagReady); err != nil {
				return err
			}
			if _, err := w.RecvBytes(goMsg, 0, tagGo); err != nil {
				return err
			}
			_, err = w.Wait(id)
			if err := check(1, err); err != nil {
				return err
			}
			// Case 2: an Irecv posted after the message arrived.
			if _, err := w.RecvBytes(goMsg, 0, tagGo); err != nil {
				return err
			}
			if id, err = w.Irecv(got, size, mpi.TypeByte, 0, tagData); err == nil {
				_, err = w.Wait(id)
			}
			if err := check(2, err); err != nil {
				return err
			}
			// Case 3: a wrapped Bcast, its stream taken after the overwrite.
			if _, err := w.RecvBytes(goMsg, 0, tagGo); err != nil {
				return err
			}
			return check(3, w.Bcast(got, size, mpi.TypeByte, 0))
		}()
		if err != nil {
			world.Shutdown() // the sender may be waiting for the receiver
		}
		errc <- err
	}()

	w := layers[0].World()
	scribble := func(buf []byte) error {
		copy(buf, bytes.Repeat([]byte{'!'}, len(buf)))
		return w.SendBytes(buf, 1, tagGo)
	}
	send := func(c int) error {
		buf := sent(c)
		switch c {
		case 0:
			if err := w.Send(buf, size, mpi.TypeByte, 1, tagData); err != nil {
				return err
			}
		case 1, 2:
			id, err := w.Isend(buf, size, mpi.TypeByte, 1, tagData)
			if err == nil {
				_, err = w.Wait(id)
			}
			if err != nil {
				return err
			}
		case 3:
			if err := w.Bcast(buf, size, mpi.TypeByte, 0); err != nil {
				return err
			}
		}
		return scribble(buf)
	}
	var err error
	for c := 0; c < 4 && err == nil; c++ {
		if c == 1 {
			_, err = w.RecvBytes(nil, 1, tagReady)
		}
		if err == nil {
			if err = send(c); err != nil {
				err = fmt.Errorf("sender, case %d: %w", c, err)
			}
		}
	}
	if rerr := <-errc; rerr != nil {
		t.Fatal(rerr)
	}
	if err != nil {
		t.Fatal(err)
	}
}
