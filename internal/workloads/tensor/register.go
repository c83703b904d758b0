package tensor

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
	case "skip":
		return Skip, nil
	}
	return 0, fmt.Errorf("unknown op %q", op)
}

func init() {
	scenario.Register(scenario.Workload{
		Name:        "tensor-train",
		Description: "x9lib tensor training loop (§7.3): per-batch activations written once, consumed next layer",
		Window:      sim.WindowPMEM,
		Params: []scenario.ParamDef{
			{Name: "batch", Kind: scenario.KindInt, Help: "samples per step (paper sweeps 1..250)"},
			{Name: "features", Kind: scenario.KindInt, Help: "activation width per sample"},
			{Name: "layers", Kind: scenario.KindInt, Help: "layers per step"},
			{Name: "steps", Kind: scenario.KindInt, Help: "training steps"},
			{Name: "window", Kind: scenario.KindString, Help: "memory window (default pmem)"},
			{Name: "seed", Kind: scenario.KindInt, Help: "PRNG seed"},
		},
		Ops:         []string{"none", "clean", "skip"},
		MetricNames: []string{"elapsed", "write_amp"},
		Run: func(m *sim.Machine, op string, p scenario.Params) (scenario.Metrics, error) {
			mode, err := modeFor(op)
			if err != nil {
				return nil, err
			}
			r := Train(m, TrainConfig{
				BatchSize: p.Int("batch", 0),
				Features:  p.Int("features", 0),
				Layers:    p.Int("layers", 0),
				Steps:     p.Int("steps", 0),
				Mode:      mode,
				Window:    p.Str("window", ""),
				Seed:      p.Uint64("seed", 0),
			})
			return scenario.Metrics{
				"elapsed":   float64(r.Elapsed),
				"write_amp": r.WriteAmp,
			}, nil
		},
	})
}
