package autotune

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"prestores/internal/checkpoint"
	"prestores/internal/scenario"
	"prestores/internal/telemetry"
)

// recordedEval evaluates sp in process with a line-report recorder on
// the context, as the search evaluates its baseline, and returns the
// metrics and the report the search would seed from.
func recordedEval(t *testing.T, ctx context.Context, sp scenario.Spec) (scenario.Metrics, []byte) {
	t.Helper()
	rec := telemetry.New(telemetry.Config{LineReport: true})
	m, err := Local{}.Eval(scenario.WithRecorder(ctx, rec), sp, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Attached() {
		t.Fatal("Local.Eval did not attach the context's recorder")
	}
	var b bytes.Buffer
	if err := rec.LineReport(telemetry.ReportLines).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return m, b.Bytes()
}

// TestRecordedBaselineMatchesProbe checks the search's one baseline
// run against the two runs it replaces, for every workload that
// declares pre-store sites, cold and forked from a checkpoint store:
// its metrics are the unrecorded eval's and its report is Local.Probe's,
// byte for byte.
func TestRecordedBaselineMatchesProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real KV evals; skipped with -short")
	}
	for _, sp := range []scenario.Spec{baseSpec(), kvSpec(41)} {
		name := sp.Workload.Name
		ref, err := Local{}.Eval(context.Background(), sp, false)
		if err != nil {
			t.Fatal(err)
		}
		probeSpec := sp
		probeSpec.Telemetry = &scenario.TelemetrySpec{LineReport: true}
		rep, err := Local{}.Probe(context.Background(), probeSpec, false)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := rep.WriteJSON(&want); err != nil {
			t.Fatal(err)
		}

		store, err := checkpoint.NewStore(0, "")
		if err != nil {
			t.Fatal(err)
		}
		check := func(run string, ctx context.Context) {
			t.Helper()
			m, got := recordedEval(t, ctx, sp)
			if !reflect.DeepEqual(m, ref) {
				t.Errorf("%s, %s: recorded metrics %v, unrecorded %v", name, run, m, ref)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s, %s: baseline report differs from Local.Probe's (%d vs %d bytes)", name, run, len(got), want.Len())
			}
		}
		check("cold", context.Background())
		check("store miss", checkpoint.NewContext(context.Background(), store.View()))
		forked := store.View()
		check("forked", checkpoint.NewContext(context.Background(), forked))
		if m, err := (Local{}).Eval(checkpoint.NewContext(context.Background(), forked), sp, false); err != nil || !reflect.DeepEqual(m, ref) {
			t.Errorf("%s, forked unrecorded: metrics %v (%v), want %v", name, m, err, ref)
		}
		// The recorded eval finds the machine and recorder states, the
		// unrecorded one the machine state.
		if name == "ycsb" && (forked.Hits() != 3 || forked.Misses() != 0) {
			t.Errorf("%s: forked evals saw %d hits, %d misses; want 3 hits", name, forked.Hits(), forked.Misses())
		}
	}
}

// countingEval wraps Local and counts Probe calls. With dropRecorder
// its Eval hides the context's recorder, as an evaluator that runs
// specs out of process does.
type countingEval struct {
	dropRecorder bool
	probes       atomic.Int32
}

func (c *countingEval) Eval(ctx context.Context, sp scenario.Spec, quick bool) (scenario.Metrics, error) {
	if c.dropRecorder {
		ctx = scenario.WithRecorder(ctx, nil)
	}
	return Local{}.Eval(ctx, sp, quick)
}

func (c *countingEval) Probe(ctx context.Context, sp scenario.Spec, quick bool) (*telemetry.LineReport, error) {
	c.probes.Add(1)
	return Local{}.Probe(ctx, sp, quick)
}

// TestProbeOnlyWhenBaselineUnrecorded pins which run seeds the search:
// an in-process evaluator records the baseline eval and is never asked
// for a probe; one that does not attach the recorder is probed exactly
// once. Both reproduce the golden trajectory.
func TestProbeOnlyWhenBaselineUnrecorded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real KV searches; skipped with -short")
	}
	for _, drop := range []bool{false, true} {
		store, err := checkpoint.NewStore(0, "")
		if err != nil {
			t.Fatal(err)
		}
		ev := &countingEval{dropRecorder: drop}
		got := searchSHA(t, checkpoint.NewContext(context.Background(), store.View()), kvSpec(11), kvParams(1), ev)
		if got != kvTrajectoryGolden {
			t.Errorf("drop recorder %v: trajectory SHA %s, want %s", drop, got, kvTrajectoryGolden)
		}
		want := int32(0)
		if drop {
			want = 1
		}
		if n := ev.probes.Load(); n != want {
			t.Errorf("drop recorder %v: %d Probe calls, want %d", drop, n, want)
		}
	}
}

// TestConcurrentSearchesForkOneRecorderState runs two searches at once,
// each with Parallel 2, whose baselines fork the same stored recorder
// state: each copies the shared template, and both reproduce the
// golden trajectory. Under -race this checks that forks share nothing.
func TestConcurrentSearchesForkOneRecorderState(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real KV searches; skipped with -short")
	}
	store, err := checkpoint.NewStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	trajectorySHA(t, checkpoint.NewContext(context.Background(), store.View()), kvSpec(12), kvParams(2))
	var wg sync.WaitGroup
	shas := make([]string, 2)
	errs := make([]error, 2)
	views := make([]*checkpoint.View, 2)
	for i := range shas {
		views[i] = store.View()
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Run(checkpoint.NewContext(context.Background(), views[i]), kvSpec(11), kvParams(2), Local{}, nil)
			if err == nil {
				var b []byte
				b, err = res.Trajectory.JSON()
				sum := sha256.Sum256(b)
				shas[i] = hex.EncodeToString(sum[:])
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, sha := range shas {
		if errs[i] != nil {
			t.Fatalf("search %d: %v", i, errs[i])
		}
		if sha != kvTrajectoryGolden {
			t.Errorf("search %d: trajectory SHA %s, want %s", i, sha, kvTrajectoryGolden)
		}
		if views[i].Misses() != 0 {
			t.Errorf("search %d: %d checkpoint misses, want 0", i, views[i].Misses())
		}
	}
}
