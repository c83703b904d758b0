package ycsb

import (
	"fmt"

	"prestores/internal/sim"
	"prestores/internal/snap"
	"prestores/internal/workloads/kv"
)

// warmState is the host-side state a store must serialize for its load
// phase to be checkpointable. Both registered stores (CLHT, Masstree)
// implement it; a store that does not simply always loads cold.
type warmState interface {
	SnapshotState(w *snap.Writer)
	RestoreState(r *snap.Reader) error
}

// warmLoad populates the store like Load, but through the phase
// control: on a checkpoint hit the machine has already been restored by
// pc and warmLoad decodes the host-side heap and store state from the
// annex; on a miss it runs the cold Load and hands the end state —
// machine implicit, heap and store serialized as the annex — to
// pc.Save. The load is deterministic and RNG-free, so a restored state
// is op-for-op indistinguishable from a cold load with the same
// (store, window, records, value size, heap size).
//
// A decode failure after the machine restore is an error, not a
// fallback: the machine is already warm, so silently re-running the
// cold load would corrupt the run.
func warmLoad(m *sim.Machine, store kv.Store, heap *kv.ValueHeap, cfg Config, pc *sim.PhaseControl) error {
	ws, ok := store.(warmState)
	if !ok || pc == nil {
		Load(m, store, heap, cfg)
		return nil
	}
	if annex, hit := pc.TryRestore(m); hit {
		r := snap.NewReader(annex)
		if err := heap.RestoreState(r); err != nil {
			return fmt.Errorf("ycsb: warm annex: %w", err)
		}
		if err := ws.RestoreState(r); err != nil {
			return fmt.Errorf("ycsb: warm annex: %w", err)
		}
		if err := r.Done(); err != nil {
			return fmt.Errorf("ycsb: warm annex: %w", err)
		}
		return nil
	}
	Load(m, store, heap, cfg)
	var w snap.Writer
	heap.SnapshotState(&w)
	ws.SnapshotState(&w)
	pc.WarmupDone(m, w.Finish())
	return nil
}
