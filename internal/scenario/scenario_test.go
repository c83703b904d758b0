package scenario_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"prestores/internal/scenario"

	_ "prestores/internal/workloads/micro" // registers listing1/2/3
	_ "prestores/internal/workloads/x9"    // registers x9
)

// smallSpec returns a valid spec cheap enough to execute in unit tests.
func smallSpec() scenario.Spec {
	return scenario.Spec{
		Version: 1,
		Name:    "unit",
		Machine: scenario.MachineSpec{Preset: "machine-a"},
		Workload: scenario.WorkloadSpec{
			Name:   "listing3",
			Params: map[string]any{"iters": 500},
		},
		Policy: scenario.PolicySpec{
			Ops: []string{"none", "clean"},
			Columns: []scenario.Column{
				{Title: "base cyc", Op: "none", Metric: "cycles_per_rew", Format: "f1"},
				{Title: "clean cyc", Op: "clean", Metric: "cycles_per_rew", Format: "f1"},
				{Title: "slowdown", Op: "clean", Metric: "cycles_per_rew", DenOp: "none", Format: "x2"},
			},
			Footer: []string{"(footer)"},
		},
	}
}

func TestValidateErrorFieldPaths(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*scenario.Spec)
		wantErr string
	}{
		{"bad version", func(s *scenario.Spec) { s.Version = 3 }, "version: must be 1 (got 3)"},
		{"missing workload", func(s *scenario.Spec) { s.Workload.Name = "" }, "workload.name: required"},
		{"unknown workload", func(s *scenario.Spec) { s.Workload.Name = "nope" },
			`workload.name: unknown workload "nope"`},
		{"unknown param", func(s *scenario.Spec) { s.Workload.Params["bogus"] = 1 },
			"workload.params.bogus: unknown parameter"},
		{"mistyped param", func(s *scenario.Spec) { s.Workload.Params["iters"] = "many" },
			"workload.params.iters: must be an integer (got many)"},
		{"no machine", func(s *scenario.Spec) { s.Machine.Preset = "" },
			"machine: one of machine.preset, machine.config"},
		{"two machines", func(s *scenario.Spec) {
			s.Policy.Axes = append(s.Policy.Axes, scenario.Axis{Param: "machine", Values: []any{"machine-a"}})
		}, "machine: machine.preset, machine.config, and a \"machine\" axis are mutually exclusive"},
		{"unknown preset", func(s *scenario.Spec) { s.Machine.Preset = "machine-z" },
			`machine.preset: unknown preset "machine-z"`},
		{"bad device window", func(s *scenario.Spec) {
			s.Machine.Devices = map[string]map[string]any{"nvram": {"read_lat": float64(9)}}
		}, "machine.devices.nvram: no such window"},
		{"bad device param", func(s *scenario.Spec) {
			s.Machine.Devices = map[string]map[string]any{"pmem": {"warp": float64(9)}}
		}, "machine.devices.pmem.warp: unknown device parameter"},
		{"unknown policy window", func(s *scenario.Spec) { s.Policy.Window = "remote" },
			`policy.window: unknown window "remote" (machine machine-A (x86 + Optane PMEM) has [dram pmem])`},
		{"unknown window param", func(s *scenario.Spec) { s.Workload.Params["window"] = "fpga" },
			`workload.params.window: unknown window "fpga"`},
		{"unknown quick window", func(s *scenario.Spec) { s.Run.Quick = map[string]any{"window": "cxlssd"} },
			`run.quick.window: unknown window "cxlssd"`},
		{"unknown window axis value", func(s *scenario.Spec) {
			s.Policy.Axes = append(s.Policy.Axes, scenario.Axis{Param: "window", Values: []any{"pmem", "cxlssd"}})
		}, `policy.axes[0].values[1]: unknown window "cxlssd"`},
		{"window missing on an axis machine", func(s *scenario.Spec) {
			s.Machine.Preset = ""
			s.Policy.Window = "pmem"
			s.Policy.Axes = append(s.Policy.Axes,
				scenario.Axis{Param: "machine", Values: []any{"machine-a", "machine-b-fast"}})
		}, `policy.window: unknown window "pmem" (machine machine-B-fast`},
		{"default window missing", func(s *scenario.Spec) {
			s.Workload.Name = "listing1"
			s.Machine.Preset = "machine-b-fast"
		}, `workload.params.window: required: workload listing1's default window "pmem" is not on machine machine-B-fast`},
		{"fpga default on machine-a", func(s *scenario.Spec) { s.Workload.Name = "listing2" },
			`workload.params.window: required: workload listing2's default window "fpga" is not on machine machine-A`},
		{"x9 fpga default on machine-a", func(s *scenario.Spec) {
			s.Workload = scenario.WorkloadSpec{Name: "x9", Params: map[string]any{}}
		}, `workload.params.window: required: workload x9's default window "fpga" is not on machine machine-A`},
		{"default window missing on an axis machine", func(s *scenario.Spec) {
			s.Machine.Preset = ""
			s.Run.Quick = map[string]any{"window": "dram"}
			s.Policy.Axes = append(s.Policy.Axes,
				scenario.Axis{Param: "machine", Values: []any{"machine-a", "machine-b-fast"}})
		}, `workload.params.window: required: workload listing3's default window "pmem" is not on machine machine-B-fast`},
		{"unknown axis", func(s *scenario.Spec) {
			s.Policy.Axes = append(s.Policy.Axes, scenario.Axis{Param: "zoom", Values: []any{1}})
		}, `policy.axes[0].param: unknown axis "zoom"`},
		{"empty axis", func(s *scenario.Spec) {
			s.Policy.Axes = append(s.Policy.Axes, scenario.Axis{Param: "iters"})
		}, "policy.axes[0].values: at least one value required"},
		{"bad axis value", func(s *scenario.Spec) {
			s.Policy.Axes = append(s.Policy.Axes, scenario.Axis{Param: "iters", Values: []any{"lots"}})
		}, "policy.axes[0].values[0]: must be an integer (got lots)"},
		{"label mismatch", func(s *scenario.Spec) {
			s.Policy.Axes = append(s.Policy.Axes,
				scenario.Axis{Param: "iters", Values: []any{1, 2}, Labels: []string{"one"}})
		}, "policy.axes[0].labels: got 1 labels for 2 values"},
		{"unknown machine field", func(s *scenario.Spec) {
			s.Policy.Axes = append(s.Policy.Axes, scenario.Axis{Param: "machine.warp", Values: []any{1}})
		}, "policy.axes[0].values[0]: machine.warp: unknown machine field"},
		{"unknown nested machine field", func(s *scenario.Spec) {
			s.Policy.Axes = append(s.Policy.Axes, scenario.Axis{Param: "machine.llc.nope", Values: []any{"LRU"}})
		}, "policy.axes[0].values[0]: machine.llc.nope: unknown machine field"},
		{"machine path through a scalar", func(s *scenario.Spec) {
			s.Policy.Axes = append(s.Policy.Axes, scenario.Axis{Param: "machine.drain.mode", Values: []any{"lazy"}})
		}, "policy.axes[0].values[0]: machine.drain.mode: unknown machine field"},
		{"mistyped machine field", func(s *scenario.Spec) {
			s.Policy.Axes = append(s.Policy.Axes, scenario.Axis{Param: "machine.prefetch_depth", Values: []any{2, "two"}})
		}, "policy.axes[0].values[1]: machine.prefetch_depth: must be of type int (got two)"},
		{"machine field value invalid", func(s *scenario.Spec) {
			s.Policy.Axes = append(s.Policy.Axes, scenario.Axis{Param: "machine.prefetch_depth", Values: []any{-1}})
		}, "policy.axes[0].values[0]: machine.prefetch_depth: must be non-negative (got -1)"},
		{"machine value yields an invalid config", func(s *scenario.Spec) {
			s.Policy.Axes = append(s.Policy.Axes, scenario.Axis{Param: "machine.llc.ways", Values: []any{16}, Quick: []any{3}})
		}, "policy.axes[0].quick[0]: machine.llc.size: must be a multiple of ways*line_size (got 4194304 with 3 ways of 64 B lines)"},
		{"machine values invalid only together", func(s *scenario.Spec) {
			s.Policy.Axes = append(s.Policy.Axes,
				scenario.Axis{Param: "machine.llc.size", Values: []any{4194304, 2048}},
				scenario.Axis{Param: "machine.llc.ways", Values: []any{16, 64}})
		}, "policy.axes[0].values[1] with policy.axes[1].values[1]: machine.llc.size: must be a multiple of ways*line_size (got 2048 with 64 ways of 64 B lines)"},
		{"quick machine values invalid only together", func(s *scenario.Spec) {
			s.Policy.Axes = append(s.Policy.Axes,
				scenario.Axis{Param: "machine.llc.size", Values: []any{4194304}, Quick: []any{2048}},
				scenario.Axis{Param: "machine.llc.ways", Values: []any{16}, Quick: []any{64}})
		}, "policy.axes[0].quick[0] with policy.axes[1].quick[0]: machine.llc.size: must be a multiple of ways*line_size (got 2048 with 64 ways of 64 B lines)"},
		{"unknown llc policy", func(s *scenario.Spec) {
			s.Policy.Axes = append(s.Policy.Axes, scenario.Axis{Param: "machine.llc.policy", Values: []any{"LRU", "MRU"}})
		}, `policy.axes[0].values[1]: machine.llc.policy: unknown replacement policy "MRU"`},
		{"unknown drain mode", func(s *scenario.Spec) {
			s.Policy.Axes = append(s.Policy.Axes, scenario.Axis{Param: "machine.drain", Values: []any{"sideways"}})
		}, `policy.axes[0].values[0]: machine.drain: unknown drain mode "sideways"`},
		{"window patched as a field", func(s *scenario.Spec) {
			s.Policy.Axes = append(s.Policy.Axes, scenario.Axis{Param: "machine.windows", Values: []any{1}})
		}, "policy.axes[0].values[0]: machine.windows: patch a window's device through machine.devices.<window>.<parameter>"},
		{"device path without a parameter", func(s *scenario.Spec) {
			s.Policy.Axes = append(s.Policy.Axes, scenario.Axis{Param: "machine.devices.pmem", Values: []any{1}})
		}, "policy.axes[0].values[0]: machine.devices.pmem: want machine.devices.<window>.<parameter>"},
		{"device axis on a missing window", func(s *scenario.Spec) {
			s.Policy.Axes = append(s.Policy.Axes, scenario.Axis{Param: "machine.devices.fpga.read_lat", Values: []any{100}})
		}, "policy.axes[0].values[0]: machine.devices.fpga: no such window (machine machine-A (x86 + Optane PMEM) has [dram pmem])"},
		{"device axis on a window one axis machine lacks", func(s *scenario.Spec) {
			s.Machine.Preset = ""
			s.Policy.Axes = append(s.Policy.Axes,
				scenario.Axis{Param: "machine", Values: []any{"machine-a", "machine-c"}},
				scenario.Axis{Param: "machine.devices.pmem.buffer_entries", Values: []any{8}})
		}, "policy.axes[0].values[1] with policy.axes[1].values[0]: machine.devices.pmem: no such window (machine machine-C"},
		{"unknown device axis parameter", func(s *scenario.Spec) {
			s.Policy.Axes = append(s.Policy.Axes, scenario.Axis{Param: "machine.devices.pmem.warp", Values: []any{1}})
		}, "policy.axes[0].values[0]: machine.devices.pmem.warp: unknown device parameter"},
		{"mistyped device axis value", func(s *scenario.Spec) {
			s.Policy.Axes = append(s.Policy.Axes, scenario.Axis{Param: "machine.devices.pmem.buffer_entries", Values: []any{"many"}})
		}, "policy.axes[0].values[0]: machine.devices.pmem.buffer_entries: must be a number"},
		{"column labels off an axis", func(s *scenario.Spec) { s.Policy.Columns[0].Labels = []string{"x"} },
			"policy.columns[0].labels: only an axis column takes labels"},
		{"column label mismatch", func(s *scenario.Spec) {
			s.Policy.Axes = append(s.Policy.Axes, scenario.Axis{Param: "iters", Values: []any{1, 2}})
			s.Policy.Columns = append(s.Policy.Columns, scenario.Column{Title: "n", Axis: "iters", Labels: []string{"one"}})
		}, "policy.columns[3].labels: got 1 labels for 2 values"},
		{"empty telemetry", func(s *scenario.Spec) { s.Telemetry = &scenario.TelemetrySpec{} },
			"telemetry: at least one of timeline or line_report must be true"},
		{"negative telemetry ring", func(s *scenario.Spec) {
			s.Telemetry = &scenario.TelemetrySpec{Timeline: true, MaxEvents: -1}
		}, "telemetry.max_events: must be non-negative (got -1)"},
		{"oversized telemetry ring", func(s *scenario.Spec) {
			s.Telemetry = &scenario.TelemetrySpec{Timeline: true, MaxEvents: scenario.MaxTelemetryEvents + 1}
		}, "telemetry.max_events: 4194305 exceeds the limit of 4194304"},
		{"no ops", func(s *scenario.Spec) { s.Policy.Ops = nil },
			"policy.ops: at least one op required"},
		{"duplicate op", func(s *scenario.Spec) { s.Policy.Ops = []string{"none", "none"} },
			`policy.ops[1]: duplicate op "none"`},
		{"unknown op", func(s *scenario.Spec) { s.Policy.Ops = []string{"none", "warp"} },
			`policy.ops[1]: unknown op "warp"`},
		{"no columns", func(s *scenario.Spec) { s.Policy.Columns = nil },
			"policy.columns: at least one column required"},
		{"untitled column", func(s *scenario.Spec) { s.Policy.Columns[0].Title = "" },
			"policy.columns[0].title: required"},
		{"bad format", func(s *scenario.Spec) { s.Policy.Columns[0].Format = "hex" },
			`policy.columns[0].format: unknown format "hex"`},
		{"unknown metric", func(s *scenario.Spec) { s.Policy.Columns[0].Metric = "joy" },
			`policy.columns[0].metric: unknown metric "joy"`},
		{"op not in ops", func(s *scenario.Spec) { s.Policy.Columns[0].Op = "skip" },
			`policy.columns[0].op: "skip" not in policy.ops [none clean]`},
		{"negative budget", func(s *scenario.Spec) { s.Run.MaxPoints = -1 },
			"run.max_points: must be non-negative (got -1)"},
		{"grid too big", func(s *scenario.Spec) {
			s.Run.MaxPoints = 3
			s.Policy.Axes = append(s.Policy.Axes, scenario.Axis{Param: "iters", Values: []any{1, 2}})
		}, "policy.axes: grid of 4 points exceeds the budget of 3"},
		{"quick grid too big", func(s *scenario.Spec) {
			s.Run.MaxPoints = 3
			s.Policy.Axes = append(s.Policy.Axes, scenario.Axis{Param: "iters", Values: []any{1}, Quick: []any{1, 2}})
		}, "policy.axes: quick grid of 4 points exceeds the budget of 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := smallSpec()
			tc.mutate(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestExecRendersTable(t *testing.T) {
	s := smallSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := s.Exec(context.Background(), &out, true); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 3 { // header + one row + footer
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), got)
	}
	for _, want := range []string{"base cyc", "clean cyc", "slowdown"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("header missing %q: %q", want, lines[0])
		}
	}
	if !strings.HasSuffix(lines[1], "x") {
		t.Errorf("ratio cell not x-formatted: %q", lines[1])
	}
	if lines[2] != "(footer)" {
		t.Errorf("footer = %q", lines[2])
	}
}

// TestMachineAxesPatchTogether runs two machine.* axes whose values are
// each invalid on machine A's 4 MiB 16-way LLC (48 or 5461⅓ sets) and
// valid together (64 sets of 12 ways): a row's patches apply at once.
func TestMachineAxesPatchTogether(t *testing.T) {
	s := smallSpec()
	s.Policy.Axes = []scenario.Axis{
		{Param: "machine.llc.size", Values: []any{49152}},
		{Param: "machine.llc.ways", Values: []any{12}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := s.Exec(context.Background(), &out, true); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(out.String(), "\n"); lines != 3 { // header + one row + footer
		t.Fatalf("got %d lines, want 3:\n%s", lines, out.String())
	}
}

func TestExecCancelledWritesNothingAfterHeader(t *testing.T) {
	s := smallSpec()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	if err := s.Exec(ctx, &out, true); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("cancelled run wrote %d lines, want header only:\n%s", len(lines), out.String())
	}
}

func TestKeyIsStableAndContentSensitive(t *testing.T) {
	a := smallSpec()
	b := smallSpec()
	ka, err := a.Key()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("identical specs hash differently: %s vs %s", ka, kb)
	}
	if len(ka) != 64 {
		t.Fatalf("key is not a sha256 hex digest: %q", ka)
	}
	b.Workload.Params["iters"] = 501
	kc, err := b.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kc == ka {
		t.Fatal("different specs share a key")
	}
}

func TestDevicePatchChangesResults(t *testing.T) {
	fast := smallSpec()
	slow := smallSpec()
	slow.Machine.Devices = map[string]map[string]any{
		"pmem": {"write_lat": float64(5000)},
	}
	if err := slow.Validate(); err != nil {
		t.Fatal(err)
	}
	var fastOut, slowOut bytes.Buffer
	if err := fast.Exec(context.Background(), &fastOut, true); err != nil {
		t.Fatal(err)
	}
	if err := slow.Exec(context.Background(), &slowOut, true); err != nil {
		t.Fatal(err)
	}
	if fastOut.String() == slowOut.String() {
		t.Fatalf("patching pmem write_lat did not change the table:\n%s", fastOut.String())
	}
}
