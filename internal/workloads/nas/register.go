package nas

import (
	"fmt"

	"prestores/internal/scenario"
	"prestores/internal/sim"
)

func modeFor(op string) (Mode, error) {
	switch op {
	case "none":
		return Baseline, nil
	case "clean":
		return Clean, nil
	case "clean-hot":
		return CleanHot, nil
	}
	return 0, fmt.Errorf("unknown op %q", op)
}

func init() {
	scenario.Register(scenario.Workload{
		Name:        "nas",
		Description: "NAS parallel benchmark kernels (Table 2) with DirtBuster's recommended cleans",
		Window:      sim.WindowPMEM,
		Params: []scenario.ParamDef{
			{Name: "kernel", Kind: scenario.KindString, Help: "kernel name: mg ft sp ua bt is lu ep cg"},
			{Name: "scale", Kind: scenario.KindInt, Help: "grid edge; 0 picks the kernel default"},
			{Name: "iters", Kind: scenario.KindInt, Help: "kernel iterations; 0 picks the kernel default"},
			{Name: "threads", Kind: scenario.KindInt, Help: "plane-loop threads (MG only; default 1)"},
			{Name: "window", Kind: scenario.KindString, Help: "memory window (default pmem)"},
			{Name: "seed", Kind: scenario.KindInt, Help: "PRNG seed"},
		},
		Ops:         []string{"none", "clean", "clean-hot"},
		MetricNames: []string{"elapsed", "write_amp", "stores", "loads", "instr"},
		Run: func(m *sim.Machine, op string, p scenario.Params) (scenario.Metrics, error) {
			mode, err := modeFor(op)
			if err != nil {
				return nil, err
			}
			kernel := Kernel(p.Str("kernel", string(MG)))
			found := false
			for _, k := range Kernels {
				if k == kernel {
					found = true
				}
			}
			if !found {
				return nil, fmt.Errorf("kernel: unknown kernel %q (one of %v)", kernel, Kernels)
			}
			threads := p.Int("threads", 0)
			if threads > m.Cores() {
				return nil, fmt.Errorf("threads: must be at most %d for %s", m.Cores(), m.Name())
			}
			r := Run(m, Config{
				Kernel:  kernel,
				Mode:    mode,
				Scale:   p.Int("scale", 0),
				Iters:   p.Int("iters", 0),
				Threads: threads,
				Window:  p.Str("window", ""),
				Seed:    p.Uint64("seed", 0),
			})
			return scenario.Metrics{
				"elapsed":   float64(r.Elapsed),
				"write_amp": r.WriteAmp,
				"stores":    float64(r.Stores),
				"loads":     float64(r.Loads),
				"instr":     float64(r.Instr),
			}, nil
		},
	})
}
