package autotune

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"prestores/internal/core"
	"prestores/internal/scenario"
	"prestores/internal/telemetry"
	_ "prestores/internal/workloads/micro"
	_ "prestores/internal/workloads/sites"
)

// baseSpec is a single-point sites spec; the sites package pins
// {hot: demote, once: clean} as the unique elapsed optimum of its plan
// matrix, which is what the convergence tests assert the search finds.
func baseSpec() scenario.Spec {
	return scenario.Spec{
		Version:  scenario.Version,
		Machine:  scenario.MachineSpec{Preset: "machine-a"},
		Workload: scenario.WorkloadSpec{Name: "sites"},
		Policy: scenario.PolicySpec{
			Ops:     []string{"none"},
			Columns: []scenario.Column{{Title: "elapsed", Op: "none", Metric: "elapsed"}},
		},
	}
}

func runSearch(t *testing.T, par Params) (*Result, string) {
	t.Helper()
	var progress bytes.Buffer
	res, err := Run(context.Background(), baseSpec(), par, Local{}, &progress)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res, progress.String()
}

// TestConvergesDeterministically is the optimizer convergence test: the
// search must find the known-best plan within the default budget, and
// the trajectory and progress stream must be byte-identical regardless
// of the Parallel setting.
func TestConvergesDeterministically(t *testing.T) {
	par := Params{Objective: "elapsed", Seed: 42}

	par.Parallel = 1
	serial, serialProgress := runSearch(t, par)
	par.Parallel = 4
	fanned, fannedProgress := runSearch(t, par)

	traj := serial.Trajectory
	want := map[string]string{"hot": "demote", "once": "clean"}
	if len(traj.Winner.Plan.Table) != len(want) {
		t.Fatalf("winner table = %v, want %v", traj.Winner.Plan.Table, want)
	}
	for site, op := range want {
		if got := traj.Winner.Plan.Table[site]; got != op {
			t.Errorf("winner[%s] = %q, want %q", site, got, op)
		}
	}
	if !traj.Converged {
		t.Errorf("search did not converge within budget %d (evals %d)", traj.Budget, traj.Evals)
	}
	if traj.Evals > traj.Budget {
		t.Errorf("evals %d exceeds budget %d", traj.Evals, traj.Budget)
	}
	if len(traj.Iterations) != traj.Evals {
		t.Errorf("got %d iterations for %d evals", len(traj.Iterations), traj.Evals)
	}
	base := traj.Iterations[0]
	if base.Source != "baseline" {
		t.Errorf("iteration 0 source = %q, want baseline", base.Source)
	}
	if traj.Winner.Objective >= base.Objective {
		t.Errorf("winner objective %g does not beat the all-none baseline %g",
			traj.Winner.Objective, base.Objective)
	}
	if traj.Probe == nil || traj.Probe.SeedOp == "" {
		t.Errorf("trajectory carries no probe summary: %+v", traj.Probe)
	}

	a, err := serial.Trajectory.JSON()
	if err != nil {
		t.Fatalf("trajectory JSON: %v", err)
	}
	b, err := fanned.Trajectory.JSON()
	if err != nil {
		t.Fatalf("trajectory JSON: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("trajectories differ between -parallel settings:\n%s\n---\n%s", a, b)
	}
	if serialProgress != fannedProgress {
		t.Errorf("progress streams differ between -parallel settings:\n%s\n---\n%s",
			serialProgress, fannedProgress)
	}
	if _, err := DecodeTrajectory(a); err != nil {
		t.Errorf("trajectory does not round-trip: %v", err)
	}

	// The recorded winner spec must reproduce the recorded metrics
	// exactly — the property the daemon's CI smoke re-checks over HTTP.
	m, err := Local{}.Eval(context.Background(), serial.WinnerSpec, false)
	if err != nil {
		t.Fatalf("re-eval winner spec: %v", err)
	}
	if len(m) != len(traj.Winner.Metrics) {
		t.Fatalf("re-eval metrics %v, want %v", m, traj.Winner.Metrics)
	}
	for k, v := range traj.Winner.Metrics {
		if m[k] != v {
			t.Errorf("re-eval %s = %v, want %v", k, m[k], v)
		}
	}
}

// TestBudgetBound pins that the budget is a hard cap on evaluations.
func TestBudgetBound(t *testing.T) {
	res, progress := runSearch(t, Params{Objective: "elapsed", Budget: 3, Seed: 1})
	traj := res.Trajectory
	if traj.Evals > 3 || len(traj.Iterations) > 3 {
		t.Errorf("budget 3 exceeded: evals %d, iterations %d", traj.Evals, len(traj.Iterations))
	}
	if traj.Converged {
		t.Errorf("a 3-eval search over 16 plans cannot have converged")
	}
	if !strings.Contains(progress, `"event":"done"`) {
		t.Errorf("progress stream has no done event:\n%s", progress)
	}
}

func report(stats ...telemetry.LineStat) *telemetry.LineReport {
	return &telemetry.LineReport{Lines: stats}
}

func TestSeedPlanRules(t *testing.T) {
	all := func(string) bool { return true }
	cases := []struct {
		name     string
		rep      *telemetry.LineReport
		sup      func(string) bool
		op, rule string
	}{
		{"empty", report(), all, "none", "no-writes"},
		{"far rewrites", report(telemetry.LineStat{Writes: 100, Reuse: core.Reuse{Rewrites: 50, NearRewrites: 10}}), all, "demote", "far-rewrites"},
		{"no rereads", report(telemetry.LineStat{Writes: 100}), all, "clean", "far-rereads"},
		{"far rereads", report(telemetry.LineStat{Writes: 100, Reuse: core.Reuse{Rereads: 40, NearRereads: 5}}), all, "clean", "far-rereads"},
		{"near everything", report(telemetry.LineStat{Writes: 100, Reuse: core.Reuse{Rewrites: 50, NearRewrites: 45, Rereads: 80, NearRereads: 70}}), all, "skip", "near-rereads"},
		{"unsupported op", report(telemetry.LineStat{Writes: 100, Reuse: core.Reuse{Rewrites: 50, NearRewrites: 10}}),
			func(op string) bool { return op != "demote" }, "none", "far-rewrites-unsupported"},
	}
	for _, tc := range cases {
		op, rule := SeedPlan(tc.rep, tc.sup)
		if op != tc.op || rule != tc.rule {
			t.Errorf("%s: SeedPlan = (%q, %q), want (%q, %q)", tc.name, op, rule, tc.op, tc.rule)
		}
	}
}

func TestNormalizeErrors(t *testing.T) {
	cases := []struct {
		name string
		spec func() scenario.Spec
		par  Params
		want string
	}{
		{"unknown objective", baseSpec, Params{Objective: "nope"}, "objective: unknown metric"},
		{"budget over limit", baseSpec, Params{Budget: MaxBudget + 1}, "exceeds the limit"},
		{"restarts over limit", baseSpec, Params{Restarts: MaxRestarts + 1}, "restarts:"},
		{"unknown window", baseSpec, Params{Windows: []string{"nvram"}}, "windows[0]"},
		{"negative parallel", baseSpec, Params{Parallel: -1}, "parallel:"},
		{"siteless workload", func() scenario.Spec {
			s := baseSpec()
			s.Workload.Name = "listing1"
			s.Policy.Columns = []scenario.Column{{Title: "e", Op: "none", Metric: "elapsed"}}
			return s
		}, Params{}, "no pre-store sites"},
		{"swept spec", func() scenario.Spec {
			s := baseSpec()
			s.Policy.Axes = []scenario.Axis{{Param: "rounds", Values: []any{1.0, 2.0}}}
			return s
		}, Params{}, "policy.axes"},
	}
	for _, tc := range cases {
		sp := tc.spec()
		_, err := Normalize(&sp, tc.par)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Normalize err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestNormalizeDefaults(t *testing.T) {
	sp := baseSpec()
	par, err := Normalize(&sp, Params{})
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if par.Budget != DefaultBudget || par.Objective != "elapsed" ||
		par.Restarts != DefaultRestarts || par.Parallel != 1 {
		t.Errorf("defaults = %+v", par)
	}
	// Restarts < 0 disables restarts rather than erroring.
	par, err = Normalize(&sp, Params{Restarts: -1})
	if err != nil || par.Restarts != 0 {
		t.Errorf("Restarts -1 -> (%d, %v), want (0, nil)", par.Restarts, err)
	}
}
