package cluster

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"c3/internal/mpi"
	"c3/internal/stable"
	"c3/internal/transport"
	"c3/internal/transport/tcp"
)

// meshNode is one node of a two-node world in one process, wired the way
// RunNode wires it: one tcp.Mesh, a demux over it, the diskless store on
// its replication plane and the MPI world of attempt 0 on the generation
// view of its envelope plane.
type meshNode struct {
	demux *transport.Demux
	store *stable.DistStore
	comm  *mpi.Comm
}

func newMeshNodes(b *testing.B) [2]*meshNode {
	b.Helper()
	addrs, err := freeAddrs(2)
	if err != nil {
		b.Fatal(err)
	}
	codec, err := stable.NewCodec("dup", 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	var nodes [2]*meshNode
	for r := range nodes {
		m, err := tcp.New(r, addrs)
		if err != nil {
			b.Fatal(err)
		}
		d := transport.NewDemux(m, r)
		st := stable.NewDistStore(r, 2, d.Plane(transport.WireKindRepl), stable.WithDistCodec(codec))
		view := d.Generations(transport.WireKindEnvelope, 2).Open(1)
		d.Start()
		nodes[r] = &meshNode{demux: d, store: st, comm: mpi.NewWorld(2, mpi.WithInterconnect(view)).Proc(r).CommWorld()}
		b.Cleanup(func() {
			st.Close()
			d.Close()
		})
	}
	return nodes
}

// BenchmarkNodeMeshPingPong is an 8 B MPI round trip between two nodes on
// the node mesh's generation view, idle and while node 0 commits 8 MiB
// lines to node 1 over the same mesh. Both directions of the ping share
// their connections with the commit: the ping behind fragment frames, the
// pong behind acknowledgments. The difference is the head-of-line cost a
// small MPI frame pays behind bulk checkpoint traffic on one connection.
// The loop is closed, so a ping stuck behind one frame is one sample: the
// tail percentiles and the maximum show what such a ping waits, the mean
// how much of the run pings spent waiting.
func BenchmarkNodeMeshPingPong(b *testing.B) {
	for _, busy := range []bool{false, true} {
		name := "idle"
		if busy {
			name = "commit-8MiB"
		}
		b.Run(name, func(b *testing.B) {
			nodes := newMeshNodes(b)
			stop := make(chan struct{})
			var commits atomic.Int64
			var wg sync.WaitGroup
			if busy {
				blob := make([]byte, 8<<20)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for v := 1; ; v++ {
						select {
						case <-stop:
							return
						default:
						}
						ck, err := nodes[0].store.Begin(0, v)
						if err == nil {
							err = ck.WriteSection("app", blob)
						}
						if err == nil {
							err = ck.Commit()
						}
						if err != nil {
							b.Error(err)
							return
						}
						commits.Add(1)
						_ = nodes[0].store.Retire(0, v-1)
					}
				}()
			}
			ping := make([]byte, 8)
			n := b.N
			echoed := make(chan error, 1)
			go func() {
				buf := make([]byte, 8)
				for i := 0; i < n; i++ {
					if _, err := nodes[1].comm.Recv(buf, 8, mpi.TypeByte, 0, 0); err != nil {
						echoed <- err
						return
					}
					if err := nodes[1].comm.Send(buf, 8, mpi.TypeByte, 0, 0); err != nil {
						echoed <- err
						return
					}
				}
				echoed <- nil
			}()
			rtt := make([]time.Duration, n)
			b.ResetTimer()
			for i := 0; i < n; i++ {
				start := time.Now()
				if err := nodes[0].comm.Send(ping, 8, mpi.TypeByte, 1, 0); err != nil {
					b.Fatal(err)
				}
				if _, err := nodes[0].comm.Recv(ping, 8, mpi.TypeByte, 1, 0); err != nil {
					b.Fatal(err)
				}
				rtt[i] = time.Since(start)
			}
			b.StopTimer()
			sort.Slice(rtt, func(i, j int) bool { return rtt[i] < rtt[j] })
			b.ReportMetric(float64(rtt[n/2].Microseconds()), "p50-µs")
			b.ReportMetric(float64(rtt[n*99/100].Microseconds()), "p99-µs")
			b.ReportMetric(float64(rtt[n*999/1000].Microseconds()), "p99.9-µs")
			b.ReportMetric(float64(rtt[n-1].Microseconds()), "max-µs")
			close(stop)
			wg.Wait()
			if err := <-echoed; err != nil {
				b.Fatal(err)
			}
			if busy {
				b.ReportMetric(float64(commits.Load()), "commits")
			}
		})
	}
}
