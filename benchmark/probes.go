package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"c3/internal/cluster"
	"c3/internal/mpi"
	"c3/internal/stable"
	"c3/internal/statesave"
	"c3/internal/transport"
	"c3/internal/wire"
)

// The layer probes time each layer's public functions in isolation, at a
// fixed size, in every traced run whatever the workload: they are the
// per-layer numbers a change to that layer moves first.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// perOp calls fn in batches for about d and returns the median time of one
// call in nanoseconds.
func perOp(d time.Duration, batch int, fn func()) float64 {
	var samples []float64
	deadline := time.Now().Add(d)
	for len(samples) < 3 || time.Now().Before(deadline) {
		begin := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		samples = append(samples, float64(time.Since(begin).Nanoseconds())/float64(batch))
	}
	return median(samples)
}

// allocsPerOp reports heap allocations and bytes per call of fn.
func allocsPerOp(fn func()) (allocs, bytes float64) {
	const n = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

func mbps(bytes int, nsPerOp float64) float64 { return ratio(float64(bytes)/1e6, nsPerOp/1e9) }

func runProbes(seed int64, sz sizes) (map[string]float64, error) {
	out := make(map[string]float64)
	rng := rand.New(rand.NewSource(int64(splitmix64(seed, 4))))
	floats := make([]float64, sz.probeBytes/8)
	for i := range floats {
		floats[i] = rng.NormFloat64()
	}
	blob := make([]byte, sz.probeBytes)
	rng.Read(blob)
	d := sz.probeDur

	// statesave: Registry.Save / Load of one Float64s section.
	reg := statesave.NewRegistry()
	copy(reg.Float64s("a", len(floats)).Data(), floats)
	reg2 := statesave.NewRegistry()
	reg2.Float64s("a", len(floats))
	var img []byte
	save := func() { img = reg.Save() }
	out["statesave.serialize_MBps"] = mbps(sz.probeBytes, perOp(d, 1, save))
	out["statesave.serialize_allocs_per_op"], out["statesave.serialize_B_per_op"] = allocsPerOp(save)
	var loadErr error
	out["statesave.deserialize_MBps"] = mbps(sz.probeBytes, perOp(d, 1, func() { loadErr = reg2.Load(img) }))
	if loadErr != nil {
		return nil, fmt.Errorf("probe statesave: %w", loadErr)
	}

	// wire: Writer.F64s / Reader.F64s of the same floats; a 64 B envelope.
	w := wire.NewWriter(sz.probeBytes + 16)
	out["wire.write_MBps"] = mbps(sz.probeBytes, perOp(d, 1, func() { w.Reset(); w.F64s(floats) }))
	enc := append([]byte(nil), w.Bytes()...)
	out["wire.read_MBps"] = mbps(sz.probeBytes, perOp(d, 1, func() { sink = wire.NewReader(enc).F64s() }))
	env := &mpi.Envelope{SrcWorld: 0, Tag: 7, Ctx: 2, Data: blob[:64]}
	out["wire.frame_ns"] = perOp(d, 1000, func() { sink = env.MarshalWire() })

	// codec: encode at each geometry; rs decode with two data shards lost.
	for _, c := range []struct {
		key, name string
		k, m      int
	}{{"codec.rs42", "rs", 4, 2}, {"codec.xor41", "xor", 4, 0}, {"codec.dup", "dup", 2, 0}} {
		codec, err := stable.NewCodec(c.name, c.k, c.m)
		if err != nil {
			return nil, fmt.Errorf("probe codec %s: %w", c.name, err)
		}
		var shards [][]byte
		var cerr error
		encode := func() { shards, cerr = codec.Encode(blob) }
		out[c.key+".encode_MBps"] = mbps(len(blob), perOp(d, 1, encode))
		if c.name != "rs" {
			continue
		}
		out[c.key+".encode_allocs_per_op"], out[c.key+".encode_B_per_op"] = allocsPerOp(encode)
		lost := append([][]byte(nil), shards...)
		lost[0], lost[2] = nil, nil
		var dec []byte
		out[c.key+".decode_MBps"] = mbps(len(blob), perOp(d, 1, func() {
			dec, cerr = codec.Decode(append([][]byte(nil), lost...), len(blob))
		}))
		if cerr != nil || stable.SectionSum(dec) != stable.SectionSum(blob) {
			return nil, fmt.Errorf("probe codec rs: decode with two shards lost did not return the blob (err %v)", cerr)
		}
	}

	if err := probeTCP(out, blob, d); err != nil {
		return nil, err
	}
	if err := probePingPong(out, blob[:pingBytes], sz); err != nil {
		return nil, err
	}
	if err := probeDisk(out, blob, d); err != nil {
		return nil, err
	}
	return out, nil
}

// probeTCP times raw tcp.Mesh frames between two meshes, with no mpi above.
func probeTCP(out map[string]float64, blob []byte, d time.Duration) error {
	const tagEcho, tagSilent, tagAck = 1, 2, 3
	meshes, err := newMeshes(2)
	if err != nil {
		return err
	}
	send := func(from int, tag int, data []byte) error {
		return meshes[from].Send(transport.Message{From: from, To: 1 - from, Class: transport.Data,
			Payload: &mpi.Envelope{SrcWorld: from, Tag: tag, Data: data}})
	}
	// Rank 1 echoes tagEcho frames, swallows tagSilent ones and answers a
	// tagAck frame (the last of a stream) with an empty one.
	done := make(chan struct{})
	go func() {
		defer close(done)
		port := meshes[1].Endpoint(1)
		for {
			msg, err := port.Recv()
			if err != nil {
				return // mesh closed: the probe is over
			}
			switch e := msg.Payload.(*mpi.Envelope); e.Tag {
			case tagEcho:
				_ = send(1, tagEcho, e.Data) // a failed echo shows as the client's Recv error
			case tagAck:
				_ = send(1, tagAck, nil) // likewise
			}
		}
	}()
	port := meshes[0].Endpoint(0)
	var perr error
	roundTrip := func(tag int, data []byte) {
		if err := send(0, tag, data); err != nil {
			perr = err
			return
		}
		if _, err := port.Recv(); err != nil {
			perr = err
		}
	}
	small := blob[:pingBytes]
	roundTrip(tagEcho, small) // opens both connections
	out["tcp.small_frame_us"] = perOp(d, 20, func() { roundTrip(tagEcho, small) }) / 2 / 1e3
	const burst = 256
	stream := func(data []byte, n int) {
		for i := 0; i < n-1 && perr == nil; i++ {
			perr = send(0, tagSilent, data)
		}
		roundTrip(tagAck, data)
	}
	out["tcp.small_msgs_per_s"] = ratio(burst, perOp(d, 1, func() { stream(small, burst) })/1e9)
	out["tcp.bulk_MBps"] = mbps(8*len(blob), perOp(d, 1, func() { stream(blob, 8) }))
	meshes[0].Close()
	meshes[1].Close()
	<-done
	if perr != nil {
		return fmt.Errorf("probe tcp: %w", perr)
	}
	return nil
}

// probePingPong times a 64 B in-memory ping-pong between two ranks with no
// protocol layer: mpi's own cost per round trip.
func probePingPong(out map[string]float64, msg []byte, sz sizes) error {
	rounds := 20 * sz.pingBatch
	var samples []float64
	_, err := cluster.Run(cluster.Config{Ranks: 2, Direct: true, App: func(env cluster.Env) error {
		w := env.World()
		buf := make([]byte, len(msg))
		if env.Rank() == 1 {
			for k := 0; k < rounds; k++ {
				if _, err := w.RecvBytes(buf, 0, 1); err != nil {
					return err
				}
				if err := w.SendBytes(buf, 0, 2); err != nil {
					return err
				}
			}
			return nil
		}
		const batch = 100
		for k := 0; k < rounds; k += batch {
			begin := time.Now()
			for b := 0; b < batch; b++ {
				if err := w.SendBytes(msg, 1, 1); err != nil {
					return err
				}
				if _, err := w.RecvBytes(buf, 1, 2); err != nil {
					return err
				}
			}
			samples = append(samples, float64(time.Since(begin).Nanoseconds())/batch/1e3)
		}
		return nil
	}})
	if err != nil {
		return fmt.Errorf("probe pingpong: %w", err)
	}
	out["mpi.pingpong_us"] = median(samples)
	return nil
}

// probeDisk times the DiskStore's calls on one section. The numbers are the
// sandbox filesystem's, where fsync is cheap: not a device's.
func probeDisk(out map[string]float64, blob []byte, d time.Duration) error {
	dir, err := os.MkdirTemp("", "c3bench-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := stable.NewDiskStore(dir)
	if err != nil {
		return err
	}
	var write, commit, read []float64
	deadline := time.Now().Add(d)
	for v := 1; v <= 3 || time.Now().Before(deadline); v++ {
		ck, err := disk.Begin(0, v)
		if err != nil {
			return fmt.Errorf("probe disk: %w", err)
		}
		t0 := time.Now()
		if err := ck.WriteSection("app", blob); err != nil {
			return fmt.Errorf("probe disk: %w", err)
		}
		t1 := time.Now()
		if err := ck.Commit(); err != nil {
			return fmt.Errorf("probe disk: %w", err)
		}
		t2 := time.Now()
		snap, err := disk.Open(0, v)
		if err != nil {
			return fmt.Errorf("probe disk: %w", err)
		}
		data, err := snap.ReadSection("app")
		t3 := time.Now()
		_ = snap.Close() // read-only snapshot
		if err != nil || stable.SectionSum(data) != stable.SectionSum(blob) {
			return fmt.Errorf("probe disk: section read back differs (err %v)", err)
		}
		if err := disk.Retire(0, v); err != nil {
			return fmt.Errorf("probe disk: %w", err)
		}
		write = append(write, float64(t1.Sub(t0).Nanoseconds()))
		commit = append(commit, float64(t2.Sub(t1).Nanoseconds()))
		read = append(read, float64(t3.Sub(t2).Nanoseconds()))
	}
	out["disk.write_MBps"] = mbps(len(blob), median(write))
	out["disk.commit_ms"] = median(commit) / 1e6
	out["disk.read_MBps"] = mbps(len(blob), median(read))
	return nil
}
