// Warm-start extension of the golden-determinism guard: the KV-store
// experiments, run with a checkpoint view on the context so sweeps fork
// sibling grid points from memoized post-warmup snapshots, must produce
// the exact bytes of a cold run.
package bench_test

import (
	"bytes"
	"context"
	"io"
	"sync"
	"testing"

	"prestores/internal/bench"
	"prestores/internal/checkpoint"
	"prestores/internal/sim"
)

// ckptIDs is a fast cross-section of the checkpoint-eligible
// experiments, covering both sweep shapes: fig13 forks across craft
// modes on two machines (a machine axis), kv-threads forks every grid
// point from a single load (a measured-phase axis). The full set
// (fig10-fig14, ycsb-mixes) runs in CI's checkpoint smoke.
var ckptIDs = []string{"fig13", "kv-threads"}

// TestWarmForkByteIdentity is the acceptance bar for warm-state
// forking: checkpointing is a pure wall-time optimization, so the warm
// run's bytes must equal the cold run's exactly, and the store must
// actually see hits (a silent fall-back to cold loads would pass the
// comparison while losing the speedup).
func TestWarmForkByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the KV experiment cross-section twice; skipped with -short")
	}
	exps := make([]bench.Experiment, 0, len(ckptIDs))
	for _, id := range ckptIDs {
		e, ok := bench.Lookup(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		exps = append(exps, e)
	}
	run := func(ctx context.Context) []byte {
		t.Helper()
		var buf bytes.Buffer
		results, err := bench.Run(ctx, &buf, exps, bench.RunnerConfig{Parallel: 4, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := range results {
			if results[i].Failed() {
				t.Fatalf("%s failed: %s", results[i].ID, results[i].Err)
			}
		}
		return buf.Bytes()
	}

	cold := run(context.Background())

	store, err := checkpoint.NewStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	view := store.View()
	warm := run(checkpoint.NewContext(context.Background(), view))

	if !bytes.Equal(cold, warm) {
		t.Errorf("warm-forked output differs from cold run:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	if view.Hits() == 0 {
		t.Errorf("checkpoint store saw no hits (misses=%d); warm forking never engaged", view.Misses())
	}
	t.Logf("checkpoints: %d hits, %d misses, %d bytes in store", view.Hits(), view.Misses(), store.Bytes())
}

// TestParallelSimOpsExact pins satellite behaviour of the per-run ops
// counter: an experiment's SimOps under a concurrent sweep equals its
// SimOps when run alone. Before the counter moved onto the run context,
// parallel experiments bled retired ops into each other's window of the
// process-wide total.
func TestParallelSimOpsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments; skipped with -short")
	}
	solo := func(id string) uint64 {
		t.Helper()
		e, ok := bench.Lookup(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		var buf bytes.Buffer
		res, err := bench.Run(context.Background(), &buf, []bench.Experiment{e}, bench.RunnerConfig{Parallel: 1, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Failed() {
			t.Fatalf("%s failed: %s", id, res[0].Err)
		}
		if res[0].SimOps == 0 {
			t.Fatalf("%s retired zero ops solo", id)
		}
		return res[0].SimOps
	}
	ids := []string{"listing3", "x9"}
	want := map[string]uint64{}
	var exps []bench.Experiment
	for _, id := range ids {
		want[id] = solo(id)
		e, _ := bench.Lookup(id)
		exps = append(exps, e)
	}

	var buf bytes.Buffer
	res, err := bench.Run(context.Background(), &buf, exps, bench.RunnerConfig{Parallel: 2, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if got := res[i].SimOps; got != want[res[i].ID] {
			t.Errorf("%s: SimOps under Parallel:2 = %d; want %d (solo run)", res[i].ID, got, want[res[i].ID])
		}
	}
}

// TestSimOpsExact checks that Result.SimOps counts every op the run's
// machines retired, including each run's tail after its last drain: it
// must equal the sum of the cores' instruction counts over every
// machine the experiment built.
func TestSimOpsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments; skipped with -short")
	}
	for _, id := range []string{"ablate-drain", "fig5", "x9"} {
		e, ok := bench.Lookup(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		var mu sync.Mutex
		var machines []*sim.Machine
		stop := sim.ObserveMachines(func(m *sim.Machine) {
			mu.Lock()
			machines = append(machines, m)
			mu.Unlock()
		})
		res, err := bench.Run(context.Background(), io.Discard, []bench.Experiment{e}, bench.RunnerConfig{Parallel: 1, Quick: true})
		stop()
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Failed() {
			t.Fatalf("%s failed: %s", id, res[0].Err)
		}
		var want uint64
		mu.Lock()
		for _, m := range machines {
			for i := 0; i < m.Cores(); i++ {
				want += m.Core(i).Instructions()
			}
		}
		mu.Unlock()
		if got := res[0].SimOps; got != want || want == 0 {
			t.Errorf("%s: SimOps = %d; want %d, the instructions its %d machines retired", id, got, want, len(machines))
		}
	}
}
