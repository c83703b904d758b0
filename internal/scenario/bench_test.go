package scenario_test

import (
	"context"
	"testing"

	"prestores/internal/checkpoint"
	"prestores/internal/scenario"
	"prestores/internal/sim"
)

// BenchmarkForkedEval times one warm-forked single-point eval, the
// workload rung of the layer benchmarks and the unit of an autotune
// search: machine-a, ycsb over CLHT with 10,000 records, 2,000 ops per
// thread on 2 threads, mix A, values in the PMEM window. The evals
// cycle through the ops none, clean, demote and skip, all forking one
// stored warm state; the first eval, which loads cold and stores that
// state, is untimed. One op is one eval: build the machine, restore the
// checkpoint, run the measured phase.
func BenchmarkForkedEval(b *testing.B) {
	store, err := checkpoint.NewStore(0, "")
	if err != nil {
		b.Fatal(err)
	}
	view := store.View()
	ctx := checkpoint.NewContext(context.Background(), view)
	ops := []string{"none", "clean", "demote", "skip"}
	specs := make([]scenario.Spec, len(ops))
	for i, op := range ops {
		specs[i] = scenario.Spec{
			Version: scenario.Version,
			Name:    "forked-eval",
			Machine: scenario.MachineSpec{Preset: "machine-a"},
			Workload: scenario.WorkloadSpec{Name: "ycsb", Params: map[string]any{
				"store": "clht", "records": 10000, "ops": 2000, "threads": 2,
				"mix": "A", "window": sim.WindowPMEM,
			}},
			Policy: scenario.PolicySpec{
				Ops:     []string{op},
				Columns: []scenario.Column{{Title: "elapsed", Op: op, Metric: "elapsed"}},
			},
		}
	}
	eval := func(sp *scenario.Spec) {
		if _, err := sp.EvalPoint(ctx, false); err != nil {
			b.Fatal(err)
		}
	}
	eval(&specs[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval(&specs[i%len(specs)])
	}
	b.StopTimer()
	if view.Misses() != 1 || view.Hits() != uint64(b.N) {
		b.Fatalf("checkpoint traffic = %d hits, %d misses; want %d hits, 1 miss", view.Hits(), view.Misses(), b.N)
	}
}
