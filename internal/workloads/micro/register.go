package micro

import (
	"fmt"

	"prestores/internal/scenario"
	"prestores/internal/sim"
	"prestores/internal/units"
)

// Scenario-layer registration: the three listings become declarative
// workloads. Parameter derivations replicate the hand-written bench
// experiments exactly (iters = volume/elem_size/threads in uint64
// arithmetic, elements = footprint/elem_size), so specs reproduce
// their tables byte for byte.

func modeFor(op string) (Mode, error) {
	switch op {
	case "none":
		return Baseline, nil
	case "clean":
		return CleanPrestore, nil
	case "demote":
		return DemotePrestore, nil
	case "skip":
		return SkipNT, nil
	}
	return 0, fmt.Errorf("unknown op %q", op)
}

func init() {
	scenario.Register(scenario.Workload{
		Name:        "listing1",
		Description: "Listing 1 §4.1 microbenchmark: threads write elements to a tiered window, optionally re-reading one field",
		Window:      sim.WindowPMEM,
		Params: []scenario.ParamDef{
			{Name: "elem_size", Kind: scenario.KindInt, Help: "element size in bytes (64B random .. 4KiB sequential)"},
			{Name: "footprint", Kind: scenario.KindInt, Help: "array footprint in bytes; elements = footprint/elem_size (default 32 MiB)"},
			{Name: "threads", Kind: scenario.KindInt, Help: "writer threads (default 1)"},
			{Name: "volume", Kind: scenario.KindInt, Help: "total bytes written; iters = volume/elem_size/threads (default 48 MiB)"},
			{Name: "iters", Kind: scenario.KindInt, Help: "element writes per thread; overrides volume when set"},
			{Name: "reread", Kind: scenario.KindBool, Help: "re-read one field after writing (Listing 1 line 5)"},
			{Name: "sequential", Kind: scenario.KindBool, Help: "sequential element order instead of random"},
			{Name: "window", Kind: scenario.KindString, Help: "memory window (default pmem)"},
			{Name: "seed", Kind: scenario.KindInt, Help: "PRNG seed"},
		},
		Ops:         []string{"none", "clean", "demote", "skip"},
		MetricNames: []string{"elapsed", "elapsed_per_op", "write_amp", "bytes_written", "media_bytes"},
		Run: func(m *sim.Machine, op string, p scenario.Params) (scenario.Metrics, error) {
			mode, err := modeFor(op)
			if err != nil {
				return nil, err
			}
			esz := p.Uint64("elem_size", 1024)
			if esz == 0 {
				return nil, fmt.Errorf("elem_size: must be positive")
			}
			threads := p.Int("threads", 1)
			if threads <= 0 || threads > m.Cores() {
				return nil, fmt.Errorf("threads: must be in 1..%d for %s", m.Cores(), m.Name())
			}
			iters := p.Int("iters", 0)
			if iters == 0 {
				iters = int(p.Uint64("volume", 48*units.MiB) / esz / uint64(threads))
			}
			r := RunListing1(m, Listing1Config{
				ElemSize:   esz,
				Elements:   int(p.Uint64("footprint", 32*units.MiB) / esz),
				Threads:    threads,
				Iters:      iters,
				Mode:       mode,
				ReRead:     p.Bool("reread", false),
				Sequential: p.Bool("sequential", false),
				Window:     p.Str("window", ""),
				Seed:       p.Uint64("seed", 0),
			})
			return scenario.Metrics{
				"elapsed":        float64(r.Elapsed),
				"elapsed_per_op": r.ElapsedPerOp,
				"write_amp":      r.WriteAmp,
				"bytes_written":  float64(r.BytesWritten),
				"media_bytes":    float64(r.MediaBytes),
			}, nil
		},
	})

	scenario.Register(scenario.Workload{
		Name:        "listing2",
		Description: "Listing 2 §4.2 microbenchmark: write, do unrelated reads, fence — measures fence drain stalls on weak machines",
		Window:      sim.WindowRemote,
		Params: []scenario.ParamDef{
			{Name: "elements", Kind: scenario.KindInt, Help: "one-line elements in remote memory (default 100000)"},
			{Name: "reads", Kind: scenario.KindInt, Help: "L1 reads between the write and the fence"},
			{Name: "iters", Kind: scenario.KindInt, Help: "write-prestore-read-fence sequences (default 20000)"},
			{Name: "window", Kind: scenario.KindString, Help: "memory window (default the remote window)"},
			{Name: "seed", Kind: scenario.KindInt, Help: "PRNG seed"},
		},
		Ops:         []string{"none", "demote"},
		MetricNames: []string{"elapsed", "fence_stall", "cycles_per_iter"},
		Run: func(m *sim.Machine, op string, p scenario.Params) (scenario.Metrics, error) {
			mode, err := modeFor(op)
			if err != nil {
				return nil, err
			}
			r := RunListing2(m, Listing2Config{
				Elements: p.Int("elements", 100000),
				Reads:    p.Int("reads", 0),
				Iters:    p.Int("iters", 20000),
				Mode:     mode,
				Window:   p.Str("window", ""),
				Seed:     p.Uint64("seed", 0),
			})
			return scenario.Metrics{
				"elapsed":         float64(r.Elapsed),
				"fence_stall":     float64(r.FenceStall),
				"cycles_per_iter": r.CyclesPerIter,
			}, nil
		},
	})

	scenario.Register(scenario.Workload{
		Name:        "listing3",
		Description: "Listing 3 §5 microbenchmark: cleaning a constantly re-written line",
		Window:      sim.WindowPMEM,
		Params: []scenario.ParamDef{
			{Name: "iters", Kind: scenario.KindInt, Help: "rewrites (default 200000)"},
			{Name: "window", Kind: scenario.KindString, Help: "memory window (default pmem)"},
			{Name: "seed", Kind: scenario.KindInt, Help: "PRNG seed"},
		},
		Ops:         []string{"none", "clean"},
		MetricNames: []string{"elapsed", "cycles_per_rew"},
		Run: func(m *sim.Machine, op string, p scenario.Params) (scenario.Metrics, error) {
			mode, err := modeFor(op)
			if err != nil {
				return nil, err
			}
			r := RunListing3(m, Listing3Config{
				Iters:  p.Int("iters", 200000),
				Mode:   mode,
				Window: p.Str("window", ""),
				Seed:   p.Uint64("seed", 0),
			})
			return scenario.Metrics{
				"elapsed":        float64(r.Elapsed),
				"cycles_per_rew": r.CyclesPerRew,
			}, nil
		},
	})
}
