package bench

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sort"

	"prestores/internal/scenario"
)

// Every named experiment that runs a registered workload over a grid
// is a declarative scenario spec: registerSpec validates each spec at
// init time and registers an Experiment whose Run is the scenario grid
// runner. Machine ablations are specs too: a machine.<path> axis
// patches the row's machine (machine.drain, machine.llc.policy,
// machine.devices.pmem.buffer_entries). The golden-output guard
// (golden_test.go) and the -all -quick SHA pin these to the byte-exact
// tables the hand-written loops produced. Five experiments stay code,
// each for the reason given where it registers: table1, table2,
// overhead, listing3 and fig9.

var specs = map[string]scenario.Spec{}

func registerSpec(s scenario.Spec) {
	if err := s.Validate(); err != nil {
		panic("bench: spec " + s.Name + ": " + err.Error())
	}
	specs[s.Name] = s
	register(Experiment{
		ID:    s.Name,
		Title: s.Title,
		Paper: s.Paper,
		// Exec errors panic into the runner's panic containment: a spec
		// that validated at init only fails on machine/workload-level
		// contradictions, which are programming errors here.
		Run: func(ctx context.Context, w io.Writer, quick bool) {
			if err := s.Exec(ctx, w, quick); err != nil {
				panic(fmt.Sprintf("bench: spec %s: %v", s.Name, err))
			}
		},
	})
}

// RunSpec validates and runs an ad-hoc declarative scenario spec with
// the standard experiment header — the entry point for `prestore-bench
// -spec file.json` and the daemon's /v1/scenarios jobs. Output for a
// spec dumped from a named experiment is byte-identical to running
// that experiment through RunOne.
func RunSpec(ctx context.Context, w io.Writer, s scenario.Spec, quick bool) error {
	if err := s.Validate(); err != nil {
		return err
	}
	name := s.Name
	if name == "" {
		name = "scenario"
	}
	title := s.Title
	if title == "" {
		title = "custom scenario"
	}
	ew := &errWriter{w: w}
	fmt.Fprintf(ew, "\n=== %s: %s ===\n", name, title)
	if s.Paper != "" {
		fmt.Fprintf(ew, "paper: %s\n", s.Paper)
	}
	if ew.err == nil && !cancelled(ctx) {
		if err := s.Exec(ctx, ew, quick); err != nil && ew.err == nil {
			return err
		}
	}
	return ew.err
}

// SpecFor returns the declarative spec behind a named experiment, for
// -dump-spec and the daemon's registry endpoint. Experiments that are
// not spec-driven report false.
func SpecFor(id string) (scenario.Spec, bool) {
	s, ok := specs[id]
	return s, ok
}

// SpecIDs returns the IDs of all spec-driven experiments, sorted.
func SpecIDs() []string {
	ids := make([]string, 0, len(specs))
	for id := range specs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func init() {
	registerSpec(scenario.Spec{
		Version: 1,
		Name:    "fig3",
		Title:   "Listing 1 on Machine A: clean pre-store speedup and write amplification",
		Paper:   "Fig 3: up to 3x speedup at 5 threads; amp 1.8x (1 thread) / 3.3x (2+ threads) -> 1.0 with cleaning",
		Machine: scenario.MachineSpec{Preset: "machine-a"},
		Workload: scenario.WorkloadSpec{
			Name:   "listing1",
			Params: map[string]any{"volume": 48 << 20, "reread": true, "seed": 42},
		},
		Policy: scenario.PolicySpec{
			Ops: []string{"none", "clean"},
			Axes: []scenario.Axis{
				{Param: "threads", Values: []any{1, 2, 5}, Quick: []any{1, 2}},
				{Param: "elem_size", Values: []any{256, 1024, 4096}, Quick: []any{1024}},
			},
			Columns: slices.Concat([]scenario.Column{
				{Title: "threads", Axis: "threads"},
				{Title: "elem", Axis: "elem_size", Format: "bytes"},
				{Title: "base cyc/op", Op: "none", Metric: "elapsed_per_op", Format: "f0"},
			}, ampColumns(), speedupColumn()),
		},
		Run: listing1Run(),
	})

	registerSpec(scenario.Spec{
		Version: 1,
		Name:    "skipvsclean",
		Title:   "Listing 1 variants: when to skip vs clean",
		Paper:   "Section 5: with the re-read, skipping is 2x slower than cleaning; without it, skipping wins",
		Machine: scenario.MachineSpec{Preset: "machine-a"},
		Workload: scenario.WorkloadSpec{
			Name:   "listing1",
			Params: map[string]any{"elem_size": 256, "threads": 2, "volume": 48 << 20, "seed": 42},
		},
		Policy: scenario.PolicySpec{
			Ops: []string{"clean", "skip"},
			Axes: []scenario.Axis{
				{Param: "reread", Values: []any{true, false}},
			},
			Columns: []scenario.Column{
				{Title: "re-read?", Axis: "reread"},
				{Title: "clean cyc/op", Op: "clean", Metric: "elapsed_per_op", Format: "f0"},
				{Title: "skip cyc/op", Op: "skip", Metric: "elapsed_per_op", Format: "f0"},
				{Title: "skip/clean", Op: "skip", Metric: "elapsed_per_op", DenOp: "clean", Format: "x2"},
			},
		},
		Run: listing1Run(),
	})

	registerSpec(scenario.Spec{
		Version:  1,
		Name:     "fig5",
		Title:    "Listing 2 on Machine B: demote pre-store vs reads-before-fence",
		Paper:    "Fig 5: up to 65% faster; no gain at 0 reads; fast FPGA peaks earlier than slow FPGA",
		Workload: listing2Workload(nil),
		Policy: scenario.PolicySpec{
			Ops: []string{"none", "demote"},
			Axes: []scenario.Axis{
				{Param: "machine", Values: []any{"machine-b-fast", "machine-b-slow"},
					Labels: []string{"B-fast", "B-slow"}},
				{Param: "reads", Values: []any{0, 5, 10, 20, 40, 80, 160, 320},
					Quick: []any{0, 20, 80, 320}},
			},
			Columns: demoteColumns(
				scenario.Column{Title: "machine", Axis: "machine"},
				scenario.Column{Title: "reads", Axis: "reads"}),
		},
		Run: listing2Run(),
	})

	registerSpec(scenario.Spec{
		Version: 1,
		Name:    "ext-cxlssd",
		Title:   "Extension: Listing 1 on Machine C (x86 + CXL SSD, 512B pages)",
		Paper:   "Beyond the paper's testbeds: Table 1 lists CXL SSDs at 256-512B; with 512B pages the worst-case amplification doubles to 8x and cleaning still removes it",
		Machine: scenario.MachineSpec{Preset: "machine-c"},
		Workload: scenario.WorkloadSpec{
			Name:   "listing1",
			Params: map[string]any{"threads": 2, "volume": 24 << 20, "reread": true, "seed": 42},
		},
		Policy: scenario.PolicySpec{
			Ops:    []string{"none", "clean"},
			Window: "cxlssd",
			Axes: []scenario.Axis{
				{Param: "elem_size", Values: []any{512, 2048, 8192}, Quick: []any{2048}},
			},
			Columns: slices.Concat([]scenario.Column{{Title: "elem", Axis: "elem_size", Format: "bytes"}},
				ampColumns(), speedupColumn()),
		},
		Run: scenario.RunSpec{Quick: map[string]any{"volume": 8 << 20}},
	})

	registerSpec(scenario.Spec{
		Version:  1,
		Name:     "ext-seqlog",
		Title:    "Extension: sequential-by-design writers still amplify",
		Paper:    "§8: data structures written in long sequential strides get no hardware eviction-order guarantee; DirtBuster/pre-stores enforce it",
		Machine:  scenario.MachineSpec{Preset: "machine-a"},
		Workload: listing1KiB(),
		Policy: scenario.PolicySpec{
			Axes: []scenario.Axis{
				{Param: "sequential", Values: []any{false, true}, Labels: []string{"random", "sequential"}},
				{Param: "op", Values: []any{"none", "clean"}, Labels: []string{"baseline", "clean"}},
			},
			Columns: opColumns("writer", "sequential"),
			Footer: []string{
				"(even a perfectly sequential application write stream amplifies at the",
				" device until cleans enforce the eviction order)",
			},
		},
		Run: listing1Run(),
	})

	registerSpec(scenario.Spec{
		Version: 1,
		Name:    "x9",
		Title:   "X9 message passing latency on Machine B",
		Paper:   "Section 7.3.2: demote cuts message latency 62% (B-fast) / 40% (B-slow)",
		Workload: scenario.WorkloadSpec{
			Name:   "x9",
			Params: map[string]any{"iters": 20000, "msg_size": 512, "seed": 3},
		},
		Policy: scenario.PolicySpec{
			Ops: []string{"none", "demote"},
			Axes: []scenario.Axis{
				{Param: "machine", Values: []any{"machine-b-fast", "machine-b-slow"},
					Labels: []string{"B-fast", "B-slow"}},
			},
			Columns: []scenario.Column{
				{Title: "machine", Axis: "machine"},
				{Title: "base lat", Op: "none", Metric: "latency_cyc", Format: "cyc0"},
				{Title: "demote lat", Op: "demote", Metric: "latency_cyc", Format: "cyc0"},
				{Title: "reduction", Op: "demote", Metric: "latency_cyc", DenOp: "none", Format: "drop0"},
			},
		},
		Run: scenario.RunSpec{Quick: map[string]any{"iters": 4000}},
	})

	// The key-value figures (§7.2): YCSB-A over CLHT or Masstree, sized
	// per DESIGN.md §6. With a checkpoint view, every run with the same
	// store, value size, window and machine forks from one warm load,
	// across figures too.
	for _, f := range []struct{ name, store, title, paper string }{
		{"fig10", "clht", "CLHT", "Fig 10: skip up to 2.9x, clean up to 2.3x over baseline"},
		{"fig11", "masstree", "Masstree", "Fig 11: skip up to 2.5x, clean up to 1.9x over baseline"},
	} {
		registerSpec(scenario.Spec{
			Version:  1,
			Name:     f.name,
			Title:    f.title + ", YCSB-A on Machine A: throughput vs value size",
			Paper:    f.paper,
			Machine:  scenario.MachineSpec{Preset: "machine-a"},
			Workload: kvWorkload(f.store, nil),
			Policy: scenario.PolicySpec{
				Ops:  []string{"none", "clean", "skip"},
				Axes: []scenario.Axis{kvValueSizes()},
				Columns: []scenario.Column{
					{Title: "value", Axis: "value_size", Format: "bytes"},
					{Title: "baseline", Op: "none", Metric: "ops_per_sec", Format: "mops"},
					{Title: "clean", Op: "clean", Metric: "ops_per_sec", Format: "mops"},
					{Title: "clean gain", Op: "clean", Metric: "ops_per_sec", DenOp: "none", Format: "x2"},
					{Title: "skip", Op: "skip", Metric: "ops_per_sec", Format: "mops"},
					{Title: "skip gain", Op: "skip", Metric: "ops_per_sec", DenOp: "none", Format: "x2"},
				},
			},
			Run: kvRun(),
		})
	}

	registerSpec(scenario.Spec{
		Version:  1,
		Name:     "fig12",
		Title:    "CLHT, YCSB-A on Machine A: write amplification vs value size",
		Paper:    "Fig 12: baseline ~3.8x at >=256B values; skip and clean eliminate it",
		Machine:  scenario.MachineSpec{Preset: "machine-a"},
		Workload: kvWorkload("clht", nil),
		Policy: scenario.PolicySpec{
			Ops:  []string{"none", "clean", "skip"},
			Axes: []scenario.Axis{kvValueSizes()},
			Columns: []scenario.Column{
				{Title: "value", Axis: "value_size", Format: "bytes"},
				{Title: "base amp", Op: "none", Metric: "write_amp", Format: "f2"},
				{Title: "clean amp", Op: "clean", Metric: "write_amp", Format: "f2"},
				{Title: "skip amp", Op: "skip", Metric: "write_amp", Format: "f2"},
			},
		},
		Run: kvRun(),
	})

	// On ARM the "clean" patch compiles to dc cvau, which the Machine B
	// presets model via CleanToPOU (paper §2 / §7.3.1).
	for _, f := range []struct{ name, store, title, paper string }{
		{"fig13", "clht", "CLHT", "Fig 13: cleaning (dc cvau -> demote to L2) 52% faster on B-fast"},
		{"fig14", "masstree", "Masstree", "Fig 14: cleaning 25% faster"},
	} {
		registerSpec(scenario.Spec{
			Version:  1,
			Name:     f.name,
			Title:    f.title + ", YCSB-A (1KB values) on Machine B fast/slow",
			Paper:    f.paper,
			Workload: kvWorkload(f.store, map[string]any{"value_size": 1024}),
			Policy: scenario.PolicySpec{
				Ops:     []string{"none", "clean"},
				Window:  "fpga",
				Axes:    []scenario.Axis{kvMachinesB()},
				Columns: kvCleanColumns("machine", "improvement"),
			},
			Run: kvRun(),
		})
	}

	registerSpec(scenario.Spec{
		Version:  1,
		Name:     "kv-threads",
		Title:    "CLHT YCSB-A (1KB) on Machine A: thread scaling of baseline and clean",
		Paper:    "Section 7.2.3 injects load with 10 threads, 'the configuration that provides the highest throughput'; the clean advantage requires enough threads to pressure the device",
		Machine:  scenario.MachineSpec{Preset: "machine-a"},
		Workload: kvWorkload("clht", map[string]any{"value_size": 1024}),
		Policy: scenario.PolicySpec{
			Ops:     []string{"none", "clean"},
			Axes:    []scenario.Axis{{Param: "threads", Values: []any{1, 2, 5, 10}, Quick: []any{2, 10}}},
			Columns: kvCleanColumns("threads", "clean gain"),
		},
		Run: kvRun(),
	})

	registerSpec(scenario.Spec{
		Version:  1,
		Name:     "ycsb-mixes",
		Title:    "CLHT on Machine A across YCSB mixes: pre-store gains track the write ratio",
		Paper:    "Section 7.2.3: read-only/read-mostly workloads (YCSB B-D) do not benefit from pre-storing",
		Machine:  scenario.MachineSpec{Preset: "machine-a"},
		Workload: kvWorkload("clht", map[string]any{"value_size": 1024}),
		Policy: scenario.PolicySpec{
			Ops:  []string{"none", "clean"},
			Axes: []scenario.Axis{{Param: "mix", Values: []any{"A", "B", "C", "F"}}},
			Columns: slices.Insert(kvCleanColumns("mix", "clean gain"), 1,
				scenario.Column{Title: "write ratio", Axis: "mix", Labels: []string{"50%", "5%", "0%", "50%"}}),
		},
		Run: kvRun(),
	})

	// The tensor-training figures (§7.3): one batch-size sweep on Machine
	// A, read as speed (fig7) and as write amplification (fig8). Quick
	// mode halves the activation width and runs one step.
	for _, f := range []struct {
		name, title, paper string
		ops                []string
		columns            []scenario.Column
	}{
		{"fig7", "clean vs skip, batch-size sweep",
			"Fig 7: clean +47% at batch 1 dropping to +20% at large batches; skip loses ~20%",
			[]string{"none", "clean", "skip"}, []scenario.Column{
				{Title: "batch", Axis: "batch"},
				{Title: "base Mcyc", Op: "none", Metric: "elapsed", Format: "m1"},
				{Title: "clean gain", Op: "none", Metric: "elapsed", DenOp: "clean", Format: "pct"},
				{Title: "skip gain", Op: "none", Metric: "elapsed", DenOp: "skip", Format: "pct"},
			}},
		{"fig8", "write amplification",
			"Fig 8: cleaning lowers amplification from ~3.7x to ~2.7x (only one function patched)",
			[]string{"none", "clean"}, slices.Concat([]scenario.Column{{Title: "batch", Axis: "batch"}}, ampColumns())},
	} {
		registerSpec(scenario.Spec{
			Version:  1,
			Name:     f.name,
			Title:    "TensorFlow training proxy on Machine A: " + f.title,
			Paper:    f.paper,
			Machine:  scenario.MachineSpec{Preset: "machine-a"},
			Workload: scenario.WorkloadSpec{Name: "tensor-train", Params: map[string]any{"features": 2048, "steps": 2}},
			Policy: scenario.PolicySpec{
				Ops:     f.ops,
				Axes:    []scenario.Axis{{Param: "batch", Values: []any{1, 8, 32, 64, 128, 250}, Quick: []any{1, 32}}},
				Columns: f.columns,
			},
			Run: scenario.RunSpec{Quick: map[string]any{"features": 1024, "steps": 1}},
		})
	}

	// The machine ablations (DESIGN.md §5) and the prefetch extension
	// vary the machine, not the workload: each sweeps a machine.<path>
	// axis.
	registerSpec(scenario.Spec{
		Version:  1,
		Name:     "ablate-drain",
		Title:    "Ablation: store-buffer drain mode (Problem #2's cause)",
		Paper:    "DESIGN.md #1: with an eager (x86-style) drain, demote pre-stores should stop helping on Machine B",
		Machine:  scenario.MachineSpec{Preset: "machine-b-fast"},
		Workload: listing2Workload(nil),
		Policy: scenario.PolicySpec{
			Ops: []string{"none", "demote"},
			Axes: []scenario.Axis{
				{Param: "machine.drain", Values: []any{"lazy", "eager"}},
				{Param: "reads", Values: []any{20, 80}},
			},
			Columns: demoteColumns(
				scenario.Column{Title: "drain", Axis: "machine.drain"},
				scenario.Column{Title: "reads", Axis: "reads"}),
		},
		Run: listing2Run(),
	})

	registerSpec(scenario.Spec{
		Version:  1,
		Name:     "ablate-llc",
		Title:    "Ablation: LLC replacement policy (Problem #1's cause)",
		Paper:    "DESIGN.md #2: strict LRU should lower the baseline's write amplification vs QLRU/random",
		Machine:  scenario.MachineSpec{Preset: "machine-a"},
		Workload: listing1KiB(),
		Policy: scenario.PolicySpec{
			Ops:  []string{"none", "clean"},
			Axes: []scenario.Axis{{Param: "machine.llc.policy", Values: []any{"QLRU", "PLRU", "LRU", "Random", "SRRIP"}}},
			Columns: slices.Concat([]scenario.Column{{Title: "llc policy", Axis: "machine.llc.policy"}},
				ampColumns(), speedupColumn()),
		},
		Run: listing1Run(),
	})

	registerSpec(scenario.Spec{
		Version:  1,
		Name:     "ablate-dir",
		Title:    "Ablation: directory location (on-device vs on-die)",
		Paper:    "DESIGN.md #4: an on-die directory removes the state-change round trip from both columns; the residual demote win is the overlapped data read",
		Machine:  scenario.MachineSpec{Preset: "machine-b-slow"},
		Workload: listing2Workload(map[string]any{"reads": 80}),
		Policy: scenario.PolicySpec{
			Ops: []string{"none", "demote"},
			Axes: []scenario.Axis{{Param: "machine.dir_on_device", Values: []any{true, false},
				Labels: []string{"on-device", "on-die"}}},
			Columns: demoteColumns(scenario.Column{Title: "directory", Axis: "machine.dir_on_device"}),
		},
		Run: listing2Run(),
	})

	registerSpec(scenario.Spec{
		Version:  1,
		Name:     "ablate-pmembuf",
		Title:    "Ablation: PMEM internal write-buffer capacity",
		Paper:    "DESIGN.md #3: a smaller coalescing window raises baseline amplification; cleaning stays at 1.0",
		Machine:  scenario.MachineSpec{Preset: "machine-a"},
		Workload: listing1KiB(),
		Policy: scenario.PolicySpec{
			Ops:  []string{"none", "clean"},
			Axes: []scenario.Axis{{Param: "machine.devices.pmem.buffer_entries", Values: []any{8, 32, 128}}},
			Columns: slices.Concat([]scenario.Column{{Title: "buf entries", Axis: "machine.devices.pmem.buffer_entries"}},
				ampColumns()),
		},
		Run: listing1Run(),
	})

	registerSpec(scenario.Spec{
		Version:  1,
		Name:     "ext-prefetch",
		Title:    "Extension: hardware prefetching is orthogonal to pre-storing",
		Paper:    "Intro/§8: pre-fetching moves data up; it cannot fix the write-back ordering of Problem #1 — only pre-stores do",
		Machine:  scenario.MachineSpec{Preset: "machine-a"},
		Workload: listing1KiB(),
		Policy: scenario.PolicySpec{
			Axes: []scenario.Axis{
				{Param: "machine.prefetch_depth", Values: []any{0, 2}, Labels: []string{"off", "next-2"}},
				{Param: "op", Values: []any{"none", "clean"}, Labels: []string{"baseline", "clean"}},
			},
			Columns: opColumns("prefetch", "machine.prefetch_depth"),
			Footer:  []string{"(prefetching cannot lower the baseline's amplification; cleaning can)"},
		},
		Run: listing1Run(),
	})
}

// listing1KiB is Listing 1 with 1 KiB elements written by two threads
// and re-read: the fixed workload of the ablations and extensions.
func listing1KiB() scenario.WorkloadSpec {
	return scenario.WorkloadSpec{
		Name:   "listing1",
		Params: map[string]any{"elem_size": 1024, "threads": 2, "volume": 48 << 20, "reread": true, "seed": 42},
	}
}

// listing1Run shrinks Listing 1's write volume in quick mode (DESIGN.md
// §6: the full volume is several times the LLC, so evictions reach
// steady state).
func listing1Run() scenario.RunSpec {
	return scenario.RunSpec{Quick: map[string]any{"volume": 12 << 20}}
}

// listing2Workload is Listing 2 over 100k remote elements, plus the
// experiment's own fixed parameters.
func listing2Workload(extra map[string]any) scenario.WorkloadSpec {
	return workload("listing2", map[string]any{"elements": 100000, "iters": 20000, "seed": 7}, extra)
}

// workload is the named workload with params p, overridden by extra.
func workload(name string, p, extra map[string]any) scenario.WorkloadSpec {
	for k, v := range extra {
		p[k] = v
	}
	return scenario.WorkloadSpec{Name: name, Params: p}
}

// listing2Run shrinks Listing 2's iteration count in quick mode.
func listing2Run() scenario.RunSpec {
	return scenario.RunSpec{Quick: map[string]any{"iters": 5000}}
}

// demoteColumns is the baseline-vs-demote fence-cost table: the given
// axis columns, both costs per iteration, and demote's improvement.
func demoteColumns(axes ...scenario.Column) []scenario.Column {
	return append(axes,
		scenario.Column{Title: "base cyc", Op: "none", Metric: "cycles_per_iter", Format: "f0"},
		scenario.Column{Title: "demote cyc", Op: "demote", Metric: "cycles_per_iter", Format: "f0"},
		scenario.Column{Title: "improvement", Op: "none", Metric: "cycles_per_iter", DenOp: "demote", Format: "pct"})
}

// ampColumns is the baseline and clean write amplification.
func ampColumns() []scenario.Column {
	return []scenario.Column{
		{Title: "base amp", Op: "none", Metric: "write_amp", Format: "f2"},
		{Title: "clean amp", Op: "clean", Metric: "write_amp", Format: "f2"},
	}
}

// speedupColumn is clean's speedup over the baseline.
func speedupColumn() []scenario.Column {
	return []scenario.Column{{Title: "speedup", Op: "none", Metric: "elapsed", DenOp: "clean", Format: "x2"}}
}

// opColumns is the per-op table over an axis and an op axis: the axis
// value, the mode, and the run's cost per op and write amplification.
func opColumns(title, axis string) []scenario.Column {
	return []scenario.Column{
		{Title: title, Axis: axis},
		{Title: "mode", Axis: "op"},
		{Title: "cyc/op", Metric: "elapsed_per_op", Format: "f0"},
		{Title: "write amp", Metric: "write_amp", Format: "f2"},
	}
}

// kvWorkload is the YCSB-A client every key-value experiment runs on
// store, plus the experiment's own fixed parameters.
func kvWorkload(store string, extra map[string]any) scenario.WorkloadSpec {
	return workload("ycsb", map[string]any{"store": store, "records": 400_000, "ops": 6000, "threads": 10, "mix": "A", "seed": 99}, extra)
}

// kvRun shrinks the load and the per-thread op count in quick mode.
func kvRun() scenario.RunSpec {
	return scenario.RunSpec{Quick: map[string]any{"records": 100_000, "ops": 1500}}
}

func kvValueSizes() scenario.Axis {
	return scenario.Axis{Param: "value_size", Values: []any{64, 128, 256, 1024, 4096}, Quick: []any{256, 1024}}
}

func kvMachinesB() scenario.Axis {
	return scenario.Axis{Param: "machine", Values: []any{"machine-b-fast", "machine-b-slow"},
		Labels: []string{"B-fast", "B-slow"}}
}

// kvCleanColumns is the baseline-vs-clean throughput table over axis:
// the axis value, both throughputs, and clean's gain as a percentage.
func kvCleanColumns(axis, gain string) []scenario.Column {
	return []scenario.Column{
		{Title: axis, Axis: axis},
		{Title: "baseline", Op: "none", Metric: "ops_per_sec", Format: "mops"},
		{Title: "clean", Op: "clean", Metric: "ops_per_sec", Format: "mops"},
		{Title: gain, Op: "clean", Metric: "ops_per_sec", DenOp: "none", Format: "pct"},
	}
}
