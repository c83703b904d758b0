package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"prestores/internal/checkpoint"
	"prestores/internal/scenario"
	"prestores/internal/sim"
	"prestores/internal/workloads/kv"
	"prestores/internal/workloads/ycsb"
)

// kvWarmKey derives the content-addressed identity of a KV experiment's
// load phase. The YCSB load is RNG-free and runs on core 0 with
// baseline crafting, so the post-load state depends only on the store
// kind, the window, the record count, the value size and the heap size
// — mode, threads and mix sweeps all fork from the same warm state.
// The build version and the machine's config hash are part of the key,
// so a simulator change or a different machine never matches a stale
// checkpoint.
func kvWarmKey(m *sim.Machine, store kv.Store, heap *kv.ValueHeap, cfg ycsb.Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "bench-kv\x00%s\x00%s\x00%s\x00%s\x00%d\x00%d\x00%d",
		checkpoint.Build(), m.ConfigHash(), store.Name(), cfg.Window,
		cfg.Records, cfg.ValueSize, heap.Size())
	return hex.EncodeToString(h.Sum(nil))
}

// kvLoad is the checkpoint-aware replacement for ycsb.Load at every
// bench call site. Without a checkpoint view on the context it is
// exactly the cold load; with one, the first grid point's post-load
// snapshot is memoized under its warm-prefix key and every sibling
// grid point forks from it instead of re-simulating the load, through
// the scenario runner's checkpoint-fork path.
//
// Snapshot restore is proven lossless and canonical (see
// internal/sim/snapshot_test.go), so warm-forked sweeps stay
// byte-identical to cold ones — the golden guard runs both ways.
func kvLoad(ctx context.Context, m *sim.Machine, store kv.Store, heap *kv.ValueHeap, cfg ycsb.Config) {
	key := kvWarmKey(m, store, heap, cfg)
	if err := ycsb.WarmLoad(m, store, heap, cfg, scenario.PhaseControl(ctx, key, nil)); err != nil {
		panic(fmt.Sprintf("checkpoint %s: %v", key[:12], err))
	}
}
