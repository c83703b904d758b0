package bench

import (
	"context"
	"fmt"
	"io"

	"prestores/internal/scenario"
)

func init() {
	register(Experiment{
		ID:    "ycsb-mixes",
		Title: "CLHT on Machine A across YCSB mixes: pre-store gains track the write ratio",
		Paper: "Section 7.2.3: read-only/read-mostly workloads (YCSB B-D) do not benefit from pre-storing",
		Run:   runYCSBMixes,
	})
}

// runYCSBMixes stays code only for its second label column (the mix's
// write ratio), which the spec column set cannot express; each point is
// a single-point ycsb spec measured through EvalPoint, so it shares warm
// states with the spec-driven KV figures.
func runYCSBMixes(ctx context.Context, w io.Writer, quick bool) {
	scenario.Row(w, "mix", "write ratio", "baseline", "clean", "clean gain")
	for _, mix := range []struct{ name, writes string }{{"A", "50%"}, {"B", "5%"}, {"C", "0%"}, {"F", "50%"}} {
		var opsPerSec [2]float64
		for i, op := range []string{"none", "clean"} {
			if cancelled(ctx) {
				return
			}
			s := scenario.Spec{
				Version:  1,
				Machine:  scenario.MachineSpec{Preset: "machine-a"},
				Workload: kvWorkload("clht", map[string]any{"value_size": 1024, "mix": mix.name}),
				Policy:   scenario.PolicySpec{Ops: []string{op}},
				Run:      kvRun(),
			}
			m, err := s.EvalPoint(ctx, quick)
			if err != nil {
				panic(fmt.Sprintf("bench: ycsb-mixes: %v", err))
			}
			opsPerSec[i] = m["ops_per_sec"]
		}
		scenario.Row(w, mix.name, mix.writes, mops(opsPerSec[0]), mops(opsPerSec[1]), pct(opsPerSec[1]/opsPerSec[0]))
	}
}
