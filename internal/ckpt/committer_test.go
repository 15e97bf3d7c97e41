package ckpt

import (
	"bytes"
	"testing"

	"c3/internal/mpi"
	"c3/internal/stable"
	"c3/internal/statesave"
)

// storedLine takes one forced line in a world of one, with a receive
// posted before the line and still pending across it, and returns the
// sections the store holds for it once the commit pipeline has drained.
func storedLine(t *testing.T, async bool) map[string][]byte {
	t.Helper()
	store := stable.NewMemStore()
	world := mpi.NewWorld(1)
	defer world.Shutdown()
	reg := statesave.NewRegistry()
	reg.Int("it").Set(42)
	xs := reg.Float64s("x", 1000).Data()
	for i := range xs {
		xs[i] = float64(i) / 3
	}
	reg.Bytes("b").SetData([]byte("registered bytes"))
	l, err := New(world.Proc(0), Config{Store: store, State: reg, Policy: Policy{AsyncCommit: async}})
	if err != nil {
		t.Fatal(err)
	}
	w := l.World()
	rid, err := w.Irecv(make([]byte, 8), 8, mpi.TypeByte, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	xs[0] = -1 // the application moves on before an async line is written
	if err := w.SendBytes([]byte("crossing"), 0, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Wait(rid); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(false); err != nil {
		t.Fatal(err)
	}
	snap, err := store.Open(0, 1)
	if err != nil {
		t.Fatalf("async=%v: %v", async, err)
	}
	defer snap.Close()
	out := make(map[string][]byte)
	for _, name := range []string{secApp, secMPI, secEarly, secLate, secResults, secRequests} {
		if out[name], err = snap.ReadSection(name); err != nil {
			t.Fatalf("async=%v: %v", async, err)
		}
	}
	return out
}

// TestAsyncLineMatchesBlocking takes the same line in both commit modes
// and compares what reached the store section by section: the
// asynchronous capture copies exactly the bytes the blocking line writes
// where they lie.
func TestAsyncLineMatchesBlocking(t *testing.T) {
	blocking, async := storedLine(t, false), storedLine(t, true)
	for name, want := range blocking {
		if got := async[name]; !bytes.Equal(got, want) {
			t.Errorf("section %q: async stored %d bytes, blocking %d, contents differ", name, len(got), len(want))
		}
	}
	if len(blocking[secRequests]) == 0 || len(blocking[secApp]) < 8000 {
		t.Fatalf("the line saved too little to compare: app %d B, requests %d B", len(blocking[secApp]), len(blocking[secRequests]))
	}
}
