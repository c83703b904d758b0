package autotune

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"prestores/internal/checkpoint"
	"prestores/internal/scenario"
	"prestores/internal/sim"
	_ "prestores/internal/workloads/clht"
	_ "prestores/internal/workloads/ycsb"
)

// kvSpec is a single-point YCSB/CLHT spec on machine-a's PMEM window,
// small enough for a unit test but with a real load phase to fork.
func kvSpec(seed uint64) scenario.Spec {
	return scenario.Spec{
		Version: scenario.Version,
		Machine: scenario.MachineSpec{Preset: "machine-a"},
		Workload: scenario.WorkloadSpec{Name: "ycsb", Params: map[string]any{
			"store": "clht", "records": 3000, "ops": 600, "threads": 2,
			"mix": "A", "window": sim.WindowPMEM, "seed": seed,
		}},
		Policy: scenario.PolicySpec{
			Ops:     []string{"none"},
			Columns: []scenario.Column{{Title: "elapsed", Op: "none", Metric: "elapsed"}},
		},
	}
}

func kvParams(parallel int) Params {
	return Params{Seed: 3, Objective: "device_write_bytes", Budget: 6, Parallel: parallel}
}

// kvTrajectoryGolden is the SHA-256 of the trajectory JSON of the fixed
// KV search below. It was recorded before the probe forked from the
// warm checkpoint, when every probe loaded cold; the search must still
// reproduce it byte for byte, with or without a checkpoint store.
const kvTrajectoryGolden = "a671cd0632ca470e90bbbd932126bde7d4f55d5e334e3d4c3eb33681dc43744c"

func trajectorySHA(t *testing.T, ctx context.Context, sp scenario.Spec, par Params) string {
	t.Helper()
	return searchSHA(t, ctx, sp, par, Local{})
}

func searchSHA(t *testing.T, ctx context.Context, sp scenario.Spec, par Params, ev Evaluator) string {
	t.Helper()
	res, err := Run(ctx, sp, par, ev, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := res.Trajectory.JSON()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestKVTrajectoryGolden pins the search's output: cold, with a fresh
// checkpoint store, and with a store an earlier search (another spec
// seed, so the same warm state) filled, where the recorded baseline
// forks too.
func TestKVTrajectoryGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four real KV searches; skipped with -short")
	}
	fresh, err := checkpoint.NewStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	filled, err := checkpoint.NewStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	trajectorySHA(t, checkpoint.NewContext(context.Background(), filled.View()), kvSpec(12), kvParams(1))
	for _, c := range []struct {
		name string
		ctx  context.Context
	}{
		{"cold", context.Background()},
		{"fresh store", checkpoint.NewContext(context.Background(), fresh.View())},
		{"filled store", checkpoint.NewContext(context.Background(), filled.View())},
	} {
		if got := trajectorySHA(t, c.ctx, kvSpec(11), kvParams(1)); got != kvTrajectoryGolden {
			t.Errorf("%s: trajectory SHA %s, want %s", c.name, got, kvTrajectoryGolden)
		}
	}
}

// TestSeedSiblingSearchNeverMisses pins one cold load per warm state:
// the first search on an empty store misses once, in its recorded
// baseline, which stores the machine and recorder states together; a
// search whose spec differs from it only in seed then finds every
// checkpoint it needs, the baseline's recorder state included.
func TestSeedSiblingSearchNeverMisses(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four real KV searches; skipped with -short")
	}
	for _, parallel := range []int{1, 2} {
		store, err := checkpoint.NewStore(0, "")
		if err != nil {
			t.Fatal(err)
		}
		first := store.View()
		trajectorySHA(t, checkpoint.NewContext(context.Background(), first), kvSpec(21), kvParams(parallel))
		if first.Misses() != 1 {
			t.Fatalf("parallel %d: the first search on an empty store saw %d misses, want 1", parallel, first.Misses())
		}
		second := store.View()
		trajectorySHA(t, checkpoint.NewContext(context.Background(), second), kvSpec(22), kvParams(parallel))
		if second.Misses() != 0 || second.Hits() == 0 {
			t.Errorf("parallel %d: seed sibling search saw %d hits, %d misses; want only hits",
				parallel, second.Hits(), second.Misses())
		}
	}
}

// TestForkedProbeMatchesCold checks the probe's line report directly: a
// probe forked from a stored warm state reports what a cold probe does,
// byte for byte.
func TestForkedProbeMatchesCold(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real KV probes; skipped with -short")
	}
	probe := func(ctx context.Context) []byte {
		t.Helper()
		sp := kvSpec(31)
		sp.Telemetry = &scenario.TelemetrySpec{LineReport: true}
		rep, err := Local{}.Probe(ctx, sp, false)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := rep.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	store, err := checkpoint.NewStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	cold := probe(context.Background())
	for i, name := range []string{"machine miss", "recorder miss", "hit"} {
		if i == 1 {
			// Leave only the machine checkpoint: a fresh store seeded by
			// a run without a recorder.
			if store, err = checkpoint.NewStore(0, ""); err != nil {
				t.Fatal(err)
			}
			sp := kvSpec(31)
			if _, err := sp.EvalPoint(checkpoint.NewContext(context.Background(), store.View()), false); err != nil {
				t.Fatal(err)
			}
		}
		if got := probe(checkpoint.NewContext(context.Background(), store.View())); !bytes.Equal(got, cold) {
			t.Errorf("%s: probe report differs from the cold probe's (%d vs %d bytes)", name, len(got), len(cold))
		}
	}
}
