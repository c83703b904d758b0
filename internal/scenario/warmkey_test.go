package scenario_test

import (
	"testing"

	"prestores/internal/scenario"
	_ "prestores/internal/workloads/ycsb" // the warm-phase workload whose WarmParams the key honours
)

// warmSpec sweeps ycsb's value_size (a warm parameter) and op; records
// is a non-swept warm parameter, threads a non-swept measured-phase one.
func warmSpec() scenario.Spec {
	return scenario.Spec{
		Version: 1,
		Name:    "warmkey-test",
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

func key(t *testing.T, s scenario.Spec, build string, phase int) string {
	t.Helper()
	k, err := s.WarmPrefixKey(build, phase)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestWarmPrefixKeyInvariants pins the key's contract: invariant under
// everything a sweep axis masks (axis order, value lists, quick lists,
// labels, the swept parameters' base values) and everything that feeds
// only the measured phase (parameters outside the workload's
// WarmParams and their quick overrides, run.seed, the op table, the
// telemetry block); sensitive to everything else (warm parameters,
// machine, workload, build, phase).
func TestWarmPrefixKeyInvariants(t *testing.T) {
	base := key(t, warmSpec(), "build-1", 0)

	// Determinism.
	if k := key(t, warmSpec(), "build-1", 0); k != base {
		t.Errorf("same spec hashed twice: %s vs %s", base, k)
	}

	same := map[string]func(*scenario.Spec){
		"axis order swapped": func(s *scenario.Spec) {
			s.Policy.Axes[0], s.Policy.Axes[1] = s.Policy.Axes[1], s.Policy.Axes[0]
		},
		"axis values changed": func(s *scenario.Spec) {
			s.Policy.Axes[0].Values = []any{4096}
		},
		"axis quick list changed": func(s *scenario.Spec) {
			s.Policy.Axes[0].Quick = []any{64, 1024}
		},
		"axis labels added": func(s *scenario.Spec) {
			s.Policy.Axes[1].Labels = []string{"base", "cl", "sk"}
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
		"seed changed": func(s *scenario.Spec) {
			s.Run.Seed = 7
		},
		"op table set": func(s *scenario.Spec) {
			s.Policy.Table = map[string]string{"craft": "demote"}
		},
		"telemetry block added": func(s *scenario.Spec) {
			s.Telemetry = &scenario.TelemetrySpec{LineReport: true, BucketBytes: 4096}
		},
	}
	for name, mutate := range same {
		s := warmSpec()
		mutate(&s)
		if k := key(t, s, "build-1", 0); k != base {
			t.Errorf("%s: key changed (%s vs %s); sweep-masked fields must not affect it", name, k, base)
		}
	}

	diff := map[string]func(*scenario.Spec){
		"non-swept warm param changed": func(s *scenario.Spec) {
			s.Workload.Params["records"] = 50000
		},
		"non-swept warm param added": func(s *scenario.Spec) {
			s.Workload.Params["store"] = "masstree"
		},
		"non-swept warm quick override changed": func(s *scenario.Spec) {
			s.Run.Quick["records"] = 200000
		},
		"machine preset changed": func(s *scenario.Spec) {
			s.Machine.Preset = "machine-b-fast"
		},
		"workload changed": func(s *scenario.Spec) {
			s.Workload.Name = "listing3"
		},
		"axis param set changed": func(s *scenario.Spec) {
			s.Policy.Axes[0].Param = "threads"
		},
	}
	for name, mutate := range diff {
		s := warmSpec()
		mutate(&s)
		if k := key(t, s, "build-1", 0); k == base {
			t.Errorf("%s: key unchanged; non-masked fields must affect it", name)
		}
	}

	if k := key(t, warmSpec(), "build-2", 0); k == base {
		t.Error("build change: key unchanged; checkpoints must not survive a simulator change")
	}
	if k := key(t, warmSpec(), "build-1", 1); k == base {
		t.Error("phase change: key unchanged")
	}

	// The original spec must not have been mutated by key computation.
	if got := warmSpec().Workload.Params["value_size"]; got != 256 {
		t.Errorf("spec mutated: value_size = %v", got)
	}
}

// TestWarmRunKey pins the per-grid-point narrowing: sensitive to the
// config hash and the declared warm parameters' effective values,
// insensitive to measured-phase parameters and declaration order.
func TestWarmRunKey(t *testing.T) {
	warm := []string{"store", "records", "value_size"}
	p := scenario.Params{"store": "clht", "records": 100000, "value_size": 256, "threads": 10, "mix": "A"}
	clone := func() scenario.Params {
		q := scenario.Params{}
		for k, v := range p {
			q[k] = v
		}
		return q
	}
	base := scenario.WarmRunKey("prefix", "cfg-1", warm, p)

	if k := scenario.WarmRunKey("prefix", "cfg-1", warm, clone()); k != base {
		t.Error("same inputs hashed twice differ")
	}
	if k := scenario.WarmRunKey("prefix", "cfg-2", warm, p); k == base {
		t.Error("config hash ignored")
	}
	if k := scenario.WarmRunKey("other", "cfg-1", warm, p); k == base {
		t.Error("prefix key ignored")
	}
	if k := scenario.WarmRunKey("prefix", "cfg-1", []string{"records", "value_size", "store"}, p); k != base {
		t.Error("warm-param declaration order leaked into the key")
	}

	q := clone()
	q["threads"] = 4
	q["mix"] = "F"
	if k := scenario.WarmRunKey("prefix", "cfg-1", warm, q); k != base {
		t.Error("measured-phase params leaked into the key; sibling grid points would never share a checkpoint")
	}
	q = clone()
	q["value_size"] = 1024
	if k := scenario.WarmRunKey("prefix", "cfg-1", warm, q); k == base {
		t.Error("warm param value ignored; grid points with different loads would share a checkpoint")
	}
}

// FuzzWarmPrefixKey hammers the masking logic: for any parameter name
// and pair of values (also used as run.seed), the key must ignore the
// parameter when a sweep axis overrides it or when it is not one of
// the workload's warm parameters, must change with it otherwise, and
// must be deterministic and never panic.
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
		// The base spec already sweeps some params; those are masked
		// whether or not this case adds an axis for them.
		for _, a := range warmSpec().Policy.Axes {
			if a.Param == name {
				sweep = true
			}
		}
		build := func(v int64) scenario.Spec {
			s := warmSpec()
			s.Workload.Params[name] = v
			s.Run.Seed = uint64(v)
			if sweep {
				s.Policy.Axes = append(s.Policy.Axes, scenario.Axis{Param: name, Values: []any{v}})
			}
			return s
		}
		k1, err1 := build(v1).WarmPrefixKey("b", 0)
		k2, err2 := build(v2).WarmPrefixKey("b", 0)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error asymmetry: %v vs %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if r1, _ := build(v1).WarmPrefixKey("b", 0); r1 != k1 {
			t.Fatalf("non-deterministic key for %q", name)
		}
		shapesWarm := false
		for _, w := range warm {
			shapesWarm = shapesWarm || w == name
		}
		switch {
		case sweep && k1 != k2:
			t.Errorf("swept param %q: base value leaked into the key", name)
		case !shapesWarm && k1 != k2:
			t.Errorf("measured-phase param %q or run.seed leaked into the key", name)
		case !sweep && shapesWarm && v1 != v2 && k1 == k2:
			t.Errorf("non-swept warm param %q: value ignored by the key", name)
		}
	})
}
