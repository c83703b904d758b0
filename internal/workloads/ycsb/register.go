package ycsb

import (
	"fmt"

	"prestores/internal/scenario"
	"prestores/internal/sim"
	"prestores/internal/units"
	"prestores/internal/workloads/kv"
)

func craftFor(op string) (kv.CraftMode, error) {
	switch op {
	case "none":
		return kv.CraftBaseline, nil
	case "clean":
		return kv.CraftClean, nil
	case "skip":
		return kv.CraftSkip, nil
	case "demote":
		return kv.CraftDemote, nil
	}
	return 0, fmt.Errorf("unknown op %q", op)
}

func workloadFor(name string) (Workload, error) {
	for w := A; w <= F; w++ {
		if w.String() == name {
			return w, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown YCSB mix %q (A..F)", name)
}

func init() {
	scenario.Register(scenario.Workload{
		Name:        "ycsb",
		Description: "YCSB mixes A-F over a registered key-value store with value crafting in the tiered window",
		Params: []scenario.ParamDef{
			{Name: "store", Kind: scenario.KindString, Help: "store implementation (see kv.Stores; default clht)"},
			{Name: "records", Kind: scenario.KindInt, Help: "keys loaded before the measured phase (default 400000)"},
			{Name: "ops", Kind: scenario.KindInt, Help: "operations per thread (default 6000)"},
			{Name: "threads", Kind: scenario.KindInt, Help: "client threads (default 10)"},
			{Name: "value_size", Kind: scenario.KindInt, Help: "value bytes (default 256)"},
			{Name: "mix", Kind: scenario.KindString, Help: "YCSB workload letter A-F (default A)"},
			{Name: "theta", Kind: scenario.KindFloat, Help: "Zipfian skew (default 0.99)"},
			{Name: "heap", Kind: scenario.KindInt, Help: "value-heap ring bytes (default 4 GiB)"},
			{Name: "window", Kind: scenario.KindString, Help: "memory window for values (default pmem)"},
			{Name: "seed", Kind: scenario.KindInt, Help: "PRNG seed"},
		},
		Ops:         []string{"none", "clean", "skip", "demote"},
		MetricNames: []string{"elapsed", "ops_per_sec", "reads", "writes", "scans", "read_misses", "write_amp", "device_write_bytes"},
		Run: func(m *sim.Machine, op string, p scenario.Params) (scenario.Metrics, error) {
			return runScenario(m, op, p, nil)
		},
		// The load phase is RNG-free and baseline-crafted, so only these
		// parameters shape the post-load state; sweeps over op, mix,
		// threads, ops, theta or seed fork from one warm checkpoint.
		WarmParams: []string{"store", "records", "value_size", "heap", "window"},
		RunPhased:  runScenario,
		// One pre-store call site: the value-crafting path all puts go
		// through. A policy.table {"craft": op} steers it per-site.
		Sites: []string{"craft"},
	})
}

// runScenario is the registered entry point; with a non-nil pc the load
// phase goes through warmLoad and can fork from a checkpoint.
func runScenario(m *sim.Machine, op string, p scenario.Params, pc *sim.PhaseControl) (scenario.Metrics, error) {
	craft, err := craftFor(scenario.SiteOp(p, "craft", op))
	if err != nil {
		return nil, err
	}
	mix, err := workloadFor(p.Str("mix", "A"))
	if err != nil {
		return nil, err
	}
	threads := p.Int("threads", 10)
	if threads <= 0 || threads > m.Cores() {
		return nil, fmt.Errorf("threads: must be in 1..%d for %s", m.Cores(), m.Name())
	}
	window := p.Str("window", sim.WindowPMEM)
	storeName := p.Str("store", "clht")
	store, ok := kv.NewStore(storeName, m, window)
	if !ok {
		return nil, fmt.Errorf("store: unknown store %q (one of %v)", storeName, kv.Stores())
	}
	heap := kv.NewValueHeap(m, window, p.Uint64("heap", 4*units.GiB))
	cfg := Config{
		Records:   p.Uint64("records", 400_000),
		Ops:       p.Int("ops", 6000),
		Threads:   threads,
		ValueSize: uint32(p.Uint64("value_size", 256)),
		Workload:  mix,
		Craft:     craft,
		Theta:     p.Float("theta", 0),
		Window:    window,
		Seed:      p.Uint64("seed", 0),
	}
	if err := warmLoad(m, store, heap, cfg, pc); err != nil {
		return nil, err
	}
	r := Run(m, store, heap, cfg)
	return scenario.Metrics{
		"elapsed":            float64(r.Elapsed),
		"ops_per_sec":        r.OpsPerSec,
		"reads":              float64(r.Reads),
		"writes":             float64(r.Writes),
		"scans":              float64(r.Scans),
		"read_misses":        float64(r.ReadMisses),
		"write_amp":          r.WriteAmp,
		"device_write_bytes": float64(r.DeviceWriteBytes),
	}, nil
}
