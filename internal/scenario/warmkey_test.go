package scenario_test

import (
	"testing"

	"prestores/internal/scenario"
	_ "prestores/internal/workloads/micro" // listing3: a workload without warm parameters
	_ "prestores/internal/workloads/ycsb"  // the warm-phase workload whose WarmParams the key honours
)

// warmSpec sweeps ycsb's value_size (a warm parameter) and op; records
// is a non-swept warm parameter, threads a non-swept measured-phase one.
func warmSpec() scenario.Spec {
	return scenario.Spec{
		Version: 1,
		Name:    "warmkey-test",
		Title:   "warm key test",
		Machine: scenario.MachineSpec{Preset: "machine-a"},
		Workload: scenario.WorkloadSpec{
			Name:   "ycsb",
			Params: map[string]any{"records": 400000, "value_size": 256, "threads": 10},
		},
		Policy: scenario.PolicySpec{
			Axes: []scenario.Axis{
				{Param: "value_size", Values: []any{64, 256, 1024}, Quick: []any{256}},
				{Param: "op", Values: []any{"none", "clean", "skip"}},
			},
			Columns: []scenario.Column{{Title: "value", Axis: "value_size"}},
		},
		Run: scenario.RunSpec{Quick: map[string]any{"records": 100000, "value_size": 512, "threads": 4}},
	}
}

func ycsbWarmParams(t testing.TB) []string {
	wl, ok := scenario.Get("ycsb")
	if !ok || len(wl.WarmParams) == 0 {
		t.Fatal("ycsb is not registered with warm parameters")
	}
	return wl.WarmParams
}

// key is the warm key of the spec's first grid point in full and in
// quick mode, so a field that shapes either mode's warm state moves it.
func key(t testing.TB, s scenario.Spec, build string) string {
	t.Helper()
	full, err := s.FirstWarmKey(build, false)
	if err != nil {
		t.Fatal(err)
	}
	quick, err := s.FirstWarmKey(build, true)
	if err != nil {
		t.Fatal(err)
	}
	return full + "/" + quick
}

// TestWarmPrefixKeyInvariants pins the one warm key's contract at the
// spec level: a run's key is invariant under everything that feeds only
// the measured phase or the rendered table (ops, the op table, run.seed,
// telemetry, parameters outside the workload's WarmParams, columns,
// title, footer, axis labels and order) and under base values an axis
// overrides; it changes with the workload, the machine, the build and
// every effective warm-parameter value, whether set in the params, a
// quick override, policy.window or an axis.
func TestWarmPrefixKeyInvariants(t *testing.T) {
	base := key(t, warmSpec(), "build-1")

	// Determinism.
	if k := key(t, warmSpec(), "build-1"); k != base {
		t.Errorf("same spec hashed twice: %s vs %s", base, k)
	}

	same := map[string]func(*scenario.Spec){
		"machine axis at the preset's own value": func(s *scenario.Spec) {
			s.Policy.Axes = append(s.Policy.Axes, scenario.Axis{Param: "machine.llc.policy", Values: []any{"QLRU"}})
		},
		"axis order swapped": func(s *scenario.Spec) {
			s.Policy.Axes[0], s.Policy.Axes[1] = s.Policy.Axes[1], s.Policy.Axes[0]
		},
		"axis labels added": func(s *scenario.Spec) {
			s.Policy.Axes[1].Labels = []string{"base", "cl", "sk"}
		},
		"op axis values changed": func(s *scenario.Spec) {
			s.Policy.Axes[1].Values = []any{"demote"}
		},
		"op axis replaced by an ops list": func(s *scenario.Spec) {
			s.Policy.Axes = s.Policy.Axes[:1]
			s.Policy.Ops = []string{"clean"}
		},
		"swept param's base value changed": func(s *scenario.Spec) {
			s.Workload.Params["value_size"] = 8192
		},
		"swept param's quick override changed": func(s *scenario.Spec) {
			s.Run.Quick["value_size"] = 64
		},
		"swept param's quick override removed": func(s *scenario.Spec) {
			delete(s.Run.Quick, "value_size")
		},
		"non-warm param changed": func(s *scenario.Spec) {
			s.Workload.Params["threads"] = 2
		},
		"non-warm params added": func(s *scenario.Spec) {
			s.Workload.Params["mix"] = "F"
			s.Workload.Params["ops"] = 100
			s.Workload.Params["theta"] = 0.5
			s.Workload.Params["seed"] = 9
		},
		"non-warm quick override changed": func(s *scenario.Spec) {
			s.Run.Quick["threads"] = 8
		},
		"non-warm axis added": func(s *scenario.Spec) {
			s.Policy.Axes = append(s.Policy.Axes, scenario.Axis{Param: "threads", Values: []any{1, 2}})
		},
		"seed changed": func(s *scenario.Spec) {
			s.Run.Seed = 7
		},
		"op table set": func(s *scenario.Spec) {
			s.Policy.Table = map[string]string{"craft": "demote"}
		},
		"telemetry block added": func(s *scenario.Spec) {
			s.Telemetry = &scenario.TelemetrySpec{LineReport: true, BucketBytes: 4096}
		},
		"table layout changed": func(s *scenario.Spec) {
			s.Name, s.Title, s.Paper = "other", "other title", "other paper"
			s.Policy.Columns = []scenario.Column{{Title: "amp", Metric: "write_amp", Format: "f2"}}
			s.Policy.Footer = []string{"footer"}
		},
		"warm value written as a JSON number": func(s *scenario.Spec) {
			s.Workload.Params["records"] = float64(400000)
		},
		"default window named explicitly": func(s *scenario.Spec) {
			s.Workload.Params["window"] = "pmem"
		},
	}
	for name, mutate := range same {
		s := warmSpec()
		mutate(&s)
		if k := key(t, s, "build-1"); k != base {
			t.Errorf("%s: key changed (%s vs %s); only warm-state inputs may affect it", name, k, base)
		}
	}

	diff := map[string]func(*scenario.Spec){
		"swept warm values changed": func(s *scenario.Spec) {
			s.Policy.Axes[0].Values = []any{4096}
		},
		"swept warm quick values changed": func(s *scenario.Spec) {
			s.Policy.Axes[0].Quick = []any{64, 1024}
		},
		"non-swept warm param changed": func(s *scenario.Spec) {
			s.Workload.Params["records"] = 50000
		},
		"non-swept warm param added": func(s *scenario.Spec) {
			s.Workload.Params["store"] = "masstree"
		},
		"non-swept warm quick override changed": func(s *scenario.Spec) {
			s.Run.Quick["records"] = 200000
		},
		"policy window set": func(s *scenario.Spec) {
			s.Policy.Window = "dram"
		},
		"machine preset changed": func(s *scenario.Spec) {
			s.Machine.Preset = "machine-c"
		},
		"device patched": func(s *scenario.Spec) {
			s.Machine.Devices = map[string]map[string]any{"pmem": {"write_lat": float64(900)}}
		},
		"workload changed": func(s *scenario.Spec) {
			s.Workload.Name = "listing3"
		},
		// A machine.* axis patches the machine, and the patched config
		// hashes apart: warm states never cross a patch.
		"machine field axis": func(s *scenario.Spec) {
			s.Policy.Axes = append([]scenario.Axis{{Param: "machine.llc.policy", Values: []any{"LRU"}}}, s.Policy.Axes...)
		},
		"device parameter axis": func(s *scenario.Spec) {
			s.Policy.Axes = append([]scenario.Axis{{Param: "machine.devices.pmem.buffer_entries", Values: []any{8}}}, s.Policy.Axes...)
		},
	}
	for name, mutate := range diff {
		s := warmSpec()
		mutate(&s)
		if k := key(t, s, "build-1"); k == base {
			t.Errorf("%s: key unchanged; warm-state inputs must affect it", name)
		}
	}

	if k := key(t, warmSpec(), "build-2"); k == base {
		t.Error("build change: key unchanged; checkpoints must not survive a simulator change")
	}

	// The original spec must not have been mutated by key computation.
	if got := warmSpec().Workload.Params["value_size"]; got != 256 {
		t.Errorf("spec mutated: value_size = %v", got)
	}
}

// TestWarmRunKey pins the key function itself: sensitive to the build,
// the workload name, the config hash and the declared warm parameters'
// values; insensitive to measured-phase parameters, to declaration
// order and to how a number is typed.
func TestWarmRunKey(t *testing.T) {
	wl := scenario.Workload{Name: "w", WarmParams: []string{"store", "records", "value_size"}}
	p := scenario.Params{"store": "clht", "records": 100000, "value_size": 256, "threads": 10, "mix": "A"}
	clone := func() scenario.Params {
		q := scenario.Params{}
		for k, v := range p {
			q[k] = v
		}
		return q
	}
	base := scenario.WarmKey("build", wl, "cfg-1", p)
	if base == "" {
		t.Fatal("no key for plain parameters")
	}

	if k := scenario.WarmKey("build", wl, "cfg-1", clone()); k != base {
		t.Error("same inputs hashed twice differ")
	}
	if k := scenario.WarmKey("build", wl, "cfg-2", p); k == base {
		t.Error("config hash ignored")
	}
	if k := scenario.WarmKey("build-2", wl, "cfg-1", p); k == base {
		t.Error("build ignored")
	}
	other := wl
	other.Name = "v"
	if k := scenario.WarmKey("build", other, "cfg-1", p); k == base {
		t.Error("workload name ignored")
	}
	reordered := wl
	reordered.WarmParams = []string{"records", "value_size", "store"}
	if k := scenario.WarmKey("build", reordered, "cfg-1", p); k != base {
		t.Error("warm-param declaration order leaked into the key")
	}

	q := clone()
	q["threads"] = 4
	q["mix"] = "F"
	if k := scenario.WarmKey("build", wl, "cfg-1", q); k != base {
		t.Error("measured-phase params leaked into the key; sibling grid points would never share a checkpoint")
	}
	q = clone()
	q["records"] = float64(100000)
	if k := scenario.WarmKey("build", wl, "cfg-1", q); k != base {
		t.Error("an int and the same JSON-decoded float64 give different keys")
	}
	q = clone()
	q["value_size"] = 1024
	if k := scenario.WarmKey("build", wl, "cfg-1", q); k == base {
		t.Error("warm param value ignored; grid points with different loads would share a checkpoint")
	}
	q = clone()
	delete(q, "store")
	if k := scenario.WarmKey("build", wl, "cfg-1", q); k == base {
		t.Error("an absent warm param hashed like a set one")
	}
}

// FuzzWarmPrefixKey hammers the key's parameter handling: for any
// parameter name and pair of values (also used as run.seed), set in the
// params or swept by a one-value axis, the key of the spec's run must
// change with the value exactly when the parameter is one of the
// workload's warm parameters, and must be deterministic and never
// panic.
func FuzzWarmPrefixKey(f *testing.F) {
	f.Add("value_size", int64(64), int64(4096), true)
	f.Add("records", int64(100), int64(100000), false)
	f.Add("", int64(0), int64(0), true)
	f.Add("op", int64(1), int64(2), true)
	f.Add("machine", int64(-1), int64(1), false)
	f.Add("threads", int64(2), int64(8), false)
	f.Add("heap", int64(1<<20), int64(1<<30), false)
	warm := ycsbWarmParams(f)
	f.Fuzz(func(t *testing.T, name string, v1, v2 int64, sweep bool) {
		// "machine" and "op" axes name presets and ops, not parameters.
		sweep = sweep && name != "machine" && name != "op"
		overridden := false // set as a parameter, but an axis of the base spec replaces it
		for _, a := range warmSpec().Policy.Axes {
			overridden = overridden || (!sweep && a.Param == name)
		}
		build := func(v int64) scenario.Spec {
			s := warmSpec()
			s.Run.Seed = uint64(v)
			delete(s.Run.Quick, name)
			if !sweep {
				s.Workload.Params[name] = v
				return s
			}
			for i, a := range s.Policy.Axes {
				if a.Param == name {
					s.Policy.Axes[i] = scenario.Axis{Param: name, Values: []any{v}}
					return s
				}
			}
			s.Policy.Axes = append(s.Policy.Axes, scenario.Axis{Param: name, Values: []any{v}})
			return s
		}
		k1 := key(t, build(v1), "b")
		k2 := key(t, build(v2), "b")
		if r1 := key(t, build(v1), "b"); r1 != k1 {
			t.Fatalf("non-deterministic key for %q", name)
		}
		shapesWarm := false
		for _, w := range warm {
			shapesWarm = shapesWarm || (w == name && !overridden)
		}
		switch {
		case !shapesWarm && k1 != k2:
			t.Errorf("param %q (sweep=%v) or run.seed leaked into the key", name, sweep)
		case shapesWarm && v1 != v2 && k1 == k2:
			t.Errorf("warm param %q (sweep=%v): value ignored by the key", name, sweep)
		}
	})
}
