package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"c3/internal/mpi"
)

// collComm is the collective surface of WComm. nativeComm gives an
// mpi.Comm the same surface, so one script runs on the native plane (the
// paper's Direct run) and on the protocol-wrapped plane.
type collComm interface {
	Rank() int
	Size() int
	Barrier() error
	Bcast(buf []byte, count int, dt *mpi.Datatype, root int) error
	Gather(sendBuf []byte, sendCount int, dt *mpi.Datatype, recvBuf []byte, root int) error
	Scatter(sendBuf []byte, count int, dt *mpi.Datatype, recvBuf []byte, root int) error
	Allgather(sendBuf []byte, count int, dt *mpi.Datatype, recvBuf []byte) error
	Alltoall(sendBuf []byte, count int, dt *mpi.Datatype, recvBuf []byte) error
	Alltoallv(sendBuf []byte, sendCounts, sendDispls []int, recvBuf []byte, recvCounts, recvDispls []int) error
	Reduce(sendBuf, recvBuf []byte, count int, dt *mpi.Datatype, op *mpi.Op, root int) error
	Allreduce(sendBuf, recvBuf []byte, count int, dt *mpi.Datatype, op *mpi.Op) error
	Scan(sendBuf, recvBuf []byte, count int, dt *mpi.Datatype, op *mpi.Op) error
}

type nativeComm struct{ *mpi.Comm }

func (c nativeComm) Gather(sendBuf []byte, sendCount int, dt *mpi.Datatype, recvBuf []byte, root int) error {
	return c.Comm.Gather(sendBuf, sendCount, dt, recvBuf, sendCount, dt, root)
}

func (c nativeComm) Scatter(sendBuf []byte, count int, dt *mpi.Datatype, recvBuf []byte, root int) error {
	return c.Comm.Scatter(sendBuf, count, dt, recvBuf, count, dt, root)
}

// onPlanes builds an n-rank world with a protocol layer per rank and runs
// fn on every rank concurrently, once with the native plane and once with
// the wrapped one. Both runs share the world, so they also check that the
// two planes' tag ranges never meet on the collective context. The first
// error shuts the world down, so no rank is left waiting for a peer.
func onPlanes(t testing.TB, n int, fn func(plane int, c collComm) error) {
	t.Helper()
	world := mpi.NewWorld(n)
	defer world.Shutdown()
	layers := newLayers(t, world, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			err := fn(0, nativeComm{world.Proc(r).CommWorld()})
			if err == nil {
				err = fn(1, layers[r].World())
			}
			if errs[r] = err; err != nil {
				world.Shutdown()
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}

// fill returns n bytes that depend on seed, or n bytes of 0xEE for a
// receive buffer (seed < 0), so bytes a collective must not touch show.
func fill(n, seed int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = 0xEE
		if seed >= 0 {
			b[i] = byte(seed*31 + i*7 + 1)
		}
	}
	return b
}

// collScript runs every collective once and returns each call's output.
func collScript(c collComm, dt *mpi.Datatype, root int) ([][]byte, error) {
	const cnt = 3
	r, n := c.Rank(), c.Size()
	span := cnt * dt.Extent()
	var out [][]byte
	step := func(name string, err error, res ...[]byte) error {
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, res...)
		return nil
	}
	if err := step("barrier", c.Barrier()); err != nil {
		return nil, err
	}
	bc := fill(span, -1)
	if r == root {
		bc = fill(span, 100+root)
	}
	if err := step("bcast", c.Bcast(bc, cnt, dt, root), bc); err != nil {
		return nil, err
	}
	gat := fill(n*span, -1)
	if err := step("gather", c.Gather(fill(span, r), cnt, dt, gat, root), gat); err != nil {
		return nil, err
	}
	sca := fill(span, -1)
	if err := step("scatter", c.Scatter(fill(n*span, 200+r), cnt, dt, sca, root), sca); err != nil {
		return nil, err
	}
	ag := fill(n*span, -1)
	if err := step("allgather", c.Allgather(fill(span, 300+r), cnt, dt, ag), ag); err != nil {
		return nil, err
	}
	a2a := fill(n*span, -1)
	if err := step("alltoall", c.Alltoall(fill(n*span, 400+r), cnt, dt, a2a), a2a); err != nil {
		return nil, err
	}
	// Rank j sends (j+k)%3+1 bytes to rank k.
	sc, sd, rc, rd := make([]int, n), make([]int, n), make([]int, n), make([]int, n)
	for j := 0; j < n; j++ {
		sc[j], rc[j] = (r+j)%3+1, (j+r)%3+1
		if j > 0 {
			sd[j], rd[j] = sd[j-1]+sc[j-1], rd[j-1]+rc[j-1]
		}
	}
	a2av := fill(rd[n-1]+rc[n-1], -1)
	if err := step("alltoallv", c.Alltoallv(fill(sd[n-1]+sc[n-1], 500+r), sc, sd, a2av, rc, rd), a2av); err != nil {
		return nil, err
	}
	ints := mpi.Int64Bytes([]int64{int64(r*7 - 3), int64(r * r), -int64(r)})
	red := fill(8*cnt, -1)
	if err := step("reduce", c.Reduce(ints, red, cnt, mpi.TypeInt64, mpi.OpSum, root), red); err != nil {
		return nil, err
	}
	floats := mpi.Float64Bytes([]float64{0.1 * float64(r+1), 1e16 / float64(r+1), -1.5})
	allred := fill(8*cnt, -1)
	if err := step("allreduce", c.Allreduce(floats, allred, cnt, mpi.TypeFloat64, mpi.OpSum), allred); err != nil {
		return nil, err
	}
	scan := fill(8*cnt, -1)
	if err := step("scan", c.Scan(floats, scan, cnt, mpi.TypeFloat64, mpi.OpSum), scan); err != nil {
		return nil, err
	}
	got, err := dt.Pack(bc, cnt)
	if err != nil {
		return nil, err
	}
	if want, _ := dt.Pack(fill(span, 100+root), cnt); !bytes.Equal(got, want) {
		return nil, fmt.Errorf("bcast from %d delivered %x, want %x", root, got, want)
	}
	return out, nil
}

// TestCollectivesNativeVsWrapped runs every collective on the native plane
// and on the wrapped plane, for world sizes that are not powers of two,
// non-zero roots and a non-dense datatype, and requires identical results
// on every rank.
func TestCollectivesNativeVsWrapped(t *testing.T) {
	strided, err := mpi.Vector(2, 1, 2, mpi.TypeInt64) // 16 of every 24 bytes
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ n, root int }{{3, 1}, {3, 2}, {5, 0}, {5, 3}} {
		for _, dt := range []struct {
			name string
			dt   *mpi.Datatype
		}{{"float64", mpi.TypeFloat64}, {"vector", strided}} {
			t.Run(fmt.Sprintf("n%d/root%d/%s", tc.n, tc.root, dt.name), func(t *testing.T) {
				outs := make([][2][][]byte, tc.n)
				onPlanes(t, tc.n, func(plane int, c collComm) error {
					out, err := collScript(c, dt.dt, tc.root)
					outs[c.Rank()][plane] = out
					return err
				})
				for r, o := range outs {
					for i := range o[0] {
						if !bytes.Equal(o[0][i], o[1][i]) {
							t.Errorf("rank %d, output %d: native %x, wrapped %x", r, i, o[0][i], o[1][i])
						}
					}
				}
			})
		}
	}
}

// TestCollectiveShortChunk has one rank contribute one element fewer than
// its peers expect, in a Gather and in an Alltoallv. Both planes must
// report mpi.ErrTruncate at the receiver rather than leave the tail of its
// buffer stale.
func TestCollectiveShortChunk(t *testing.T) {
	const n, root, short = 3, 0, 1
	for _, name := range []string{"gather", "alltoallv"} {
		t.Run(name, func(t *testing.T) {
			var got [2]error
			onPlanes(t, n, func(plane int, c collComm) error {
				r := c.Rank()
				cnt := 2
				if r == short {
					cnt = 1
				}
				var err error
				if name == "gather" {
					err = c.Gather(fill(8*cnt, r), cnt, mpi.TypeInt64, fill(8*2*n, -1), root)
				} else {
					// Everyone expects 8 bytes from everyone; the short rank
					// sends 4 to the root.
					sc, sd, rc, rd := make([]int, n), make([]int, n), make([]int, n), make([]int, n)
					for j := range sc {
						sc[j], rc[j], sd[j], rd[j] = 8, 8, 8*j, 8*j
					}
					if r == short {
						sc[root] = 4
					}
					err = c.Alltoallv(fill(8*n, r), sc, sd, fill(8*n, -1), rc, rd)
				}
				if r == root {
					got[plane] = err
					return nil
				}
				return err
			})
			for plane, err := range got {
				if !errors.Is(err, mpi.ErrTruncate) {
					t.Errorf("plane %d: root got %v, want ErrTruncate", plane, err)
				}
			}
		})
	}
}
