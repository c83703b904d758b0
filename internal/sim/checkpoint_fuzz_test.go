package sim_test

import (
	"bytes"
	"testing"

	"prestores/internal/sim"
	"prestores/internal/snap"
	"prestores/internal/units"
	"prestores/internal/workloads/clht"
	"prestores/internal/workloads/kv"
	"prestores/internal/workloads/ycsb"
)

// kvCheckpoint returns the encoded checkpoint of a machine after a
// small ycsb load into CLHT, with the heap and store state as its annex
// (the shape a warm kv eval stores).
func kvCheckpoint(tb testing.TB) []byte {
	m := sim.MachineA()
	store := clht.New(m, clht.Config{Window: sim.WindowPMEM, Buckets: 1 << 10, Overflow: units.MiB})
	heap := kv.NewValueHeap(m, sim.WindowPMEM, 4*units.GiB)
	ycsb.Load(m, store, heap, ycsb.Config{Records: 300, ValueSize: 256})
	var w snap.Writer
	heap.SnapshotState(&w)
	store.SnapshotState(&w)
	ck, err := m.NewCheckpoint("fuzz", w.Finish())
	if err != nil {
		tb.Fatal(err)
	}
	return ck.Encode()
}

// FuzzDecodeCheckpoint feeds arbitrary bytes to the checkpoint envelope
// decoder: it must never panic, and a decode that succeeds must have
// read the canonical encoding, so re-encoding reproduces the input byte
// for byte.
func FuzzDecodeCheckpoint(f *testing.F) {
	data := kvCheckpoint(f)
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte("PSCK"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := sim.DecodeCheckpoint(data)
		if err != nil {
			return
		}
		if out := ck.Encode(); !bytes.Equal(out, data) {
			t.Fatalf("decoded %d bytes but re-encoding is %d bytes and differs", len(data), len(out))
		}
	})
}
