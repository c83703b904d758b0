package x9

import (
	"fmt"

	"prestores/internal/scenario"
	"prestores/internal/sim"
)

func modeFor(op string) (Mode, error) {
	switch op {
	case "none":
		return Baseline, nil
	case "demote":
		return Demote, nil
	}
	return 0, fmt.Errorf("unknown op %q", op)
}

func init() {
	scenario.Register(scenario.Workload{
		Name:        "x9",
		Description: "X9 message passing (Listing 8): producer fills slab-allocated messages, consumer polls; demote publishes the payload early",
		Window:      sim.WindowRemote,
		Params: []scenario.ParamDef{
			{Name: "slots", Kind: scenario.KindInt, Help: "ring capacity (default 8)"},
			{Name: "msg_size", Kind: scenario.KindInt, Help: "payload bytes (default 512)"},
			{Name: "iters", Kind: scenario.KindInt, Help: "messages (default 20000)"},
			{Name: "window", Kind: scenario.KindString, Help: "memory window (default the remote window)"},
			{Name: "seed", Kind: scenario.KindInt, Help: "PRNG seed"},
		},
		Ops:         []string{"none", "demote"},
		MetricNames: []string{"elapsed", "msgs", "latency_cyc", "producer_cas"},
		Run: func(m *sim.Machine, op string, p scenario.Params) (scenario.Metrics, error) {
			mode, err := modeFor(op)
			if err != nil {
				return nil, err
			}
			r := Run(m, Config{
				Slots:   p.Uint64("slots", 0),
				MsgSize: p.Uint64("msg_size", 0),
				Iters:   p.Int("iters", 20000),
				Mode:    mode,
				Window:  p.Str("window", ""),
				Seed:    p.Uint64("seed", 0),
			})
			return scenario.Metrics{
				"elapsed":      float64(r.Elapsed),
				"msgs":         float64(r.Msgs),
				"latency_cyc":  r.LatencyCyc,
				"producer_cas": float64(r.ProducerCAS),
			}, nil
		},
	})
}
