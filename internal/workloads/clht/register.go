package clht

import (
	"prestores/internal/sim"
	"prestores/internal/units"
	"prestores/internal/workloads/kv"
)

func init() {
	// Default sizing per DESIGN.md §6: the KV figures (fig10-fig14,
	// kv-threads, ycsb-mixes) run every store with it.
	kv.RegisterStore("clht", func(m *sim.Machine, window string) kv.Store {
		return New(m, Config{Window: window, Buckets: 1 << 18, Overflow: 64 * units.MiB})
	})
}
