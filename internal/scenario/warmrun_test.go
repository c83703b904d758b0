package scenario_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"io"
	"reflect"
	"sync"
	"testing"

	"prestores/internal/checkpoint"
	"prestores/internal/scenario"
	"prestores/internal/sim"
	"prestores/internal/telemetry"

	_ "prestores/internal/workloads/ycsb" // registers the phased ycsb workload
)

// TestExecWarmForkByteIdentity drives the declarative grid runner's
// checkpoint path: an op sweep over the ycsb workload with a checkpoint
// view on the context must produce the cold run's bytes exactly, with
// the sweep's sibling grid points forking from the first point's
// post-load snapshot.
func TestExecWarmForkByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real KV sweep twice; skipped with -short")
	}
	spec := scenario.Spec{
		Version: 1,
		Name:    "warm-exec",
		Machine: scenario.MachineSpec{Preset: "machine-a"},
		Workload: scenario.WorkloadSpec{
			Name: "ycsb",
			Params: map[string]any{
				"records": 20000, "ops": 400, "threads": 4, "value_size": 256,
			},
		},
		Policy: scenario.PolicySpec{
			Axes: []scenario.Axis{{Param: "op", Values: []any{"none", "clean", "skip"}}},
			Columns: []scenario.Column{
				{Title: "mode", Axis: "op"},
				{Title: "ops/s", Metric: "ops_per_sec", Format: "mops"},
				{Title: "amp", Metric: "write_amp", Format: "f2"},
			},
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	run := func(ctx context.Context) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := spec.Exec(ctx, &buf, false); err != nil {
			t.Fatal(err)
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
		t.Errorf("warm-forked Exec output differs from cold:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	// Three ops share one load: the first misses, the rest fork.
	if view.Misses() != 1 || view.Hits() != 2 {
		t.Errorf("checkpoint traffic = %d hits, %d misses; want 2 hits, 1 miss", view.Hits(), view.Misses())
	}
}

// ycsbSpec is a small single-op ycsb spec: a real load phase to fork,
// cheap enough to run many times.
func ycsbSpec(params map[string]any) scenario.Spec {
	p := map[string]any{"records": 2000, "ops": 300, "threads": 2, "value_size": 256}
	for k, v := range params {
		p[k] = v
	}
	return scenario.Spec{
		Version:  1,
		Name:     "warm-telemetry",
		Machine:  scenario.MachineSpec{Preset: "machine-a"},
		Workload: scenario.WorkloadSpec{Name: "ycsb", Params: p},
		Policy: scenario.PolicySpec{
			Ops:     []string{"none"},
			Columns: []scenario.Column{{Title: "ops/s", Op: "none", Metric: "ops_per_sec", Format: "mops"}},
		},
	}
}

// TestTelemetryIndependentOfCheckpoints is the regression test for
// recorded artifacts depending on the checkpoint cache: an op sweep's
// line report and timeline must have the same bytes whether the run
// loads cold, misses the store, hits it, or finds a machine checkpoint
// saved by a run without a recorder.
func TestTelemetryIndependentOfCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a KV sweep a dozen times; skipped with -short")
	}
	spec := ycsbSpec(nil)
	spec.Policy.Ops = nil
	spec.Policy.Axes = []scenario.Axis{{Param: "op", Values: []any{"none", "demote"}}}
	spec.Policy.Columns = []scenario.Column{{Title: "mode", Axis: "op"}, {Title: "amp", Metric: "write_amp", Format: "f2"}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	type artifacts struct{ table, lines, timeline []byte }
	run := func(ctx context.Context, cfg telemetry.Config) artifacts {
		t.Helper()
		rec := telemetry.New(cfg)
		var table bytes.Buffer
		if err := spec.Exec(scenario.WithRecorder(ctx, rec), &table, false); err != nil {
			t.Fatal(err)
		}
		a := artifacts{table: table.Bytes()}
		if cfg.LineReport {
			var b bytes.Buffer
			rec.LineReport(256).WriteJSON(&b)
			a.lines = b.Bytes()
		}
		if cfg.Timeline {
			var b bytes.Buffer
			rec.WriteTimeline(&b)
			a.timeline = b.Bytes()
		}
		return a
	}
	newStore := func() *checkpoint.Store {
		store, err := checkpoint.NewStore(0, "")
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	withView := func(v *checkpoint.View) context.Context {
		return checkpoint.NewContext(context.Background(), v)
	}

	for name, cfg := range map[string]telemetry.Config{
		"linereport":      {LineReport: true, BucketBytes: 16 << 10},
		"timeline":        {Timeline: true, MaxEvents: 4096},
		"timeline+report": {Timeline: true, LineReport: true, MaxEvents: 4096},
	} {
		cold := run(context.Background(), cfg)
		if len(cold.table) == 0 || (cfg.LineReport && len(cold.lines) == 0) || (cfg.Timeline && len(cold.timeline) == 0) {
			t.Fatalf("%s: cold run recorded nothing", name)
		}

		shared := newStore()
		miss := run(withView(shared.View()), cfg)
		hitView := shared.View()
		hit := run(withView(hitView), cfg)

		// A machine checkpoint saved by a run without a recorder: the
		// recorder state misses, so the recorded run loads cold.
		bare := newStore()
		if err := spec.Exec(withView(bare.View()), io.Discard, false); err != nil {
			t.Fatal(err)
		}
		recMiss := run(withView(bare.View()), cfg)

		for run, got := range map[string]artifacts{"miss": miss, "hit": hit, "recorder miss": recMiss} {
			if !bytes.Equal(got.table, cold.table) {
				t.Errorf("%s, %s: table differs from the cold run's", name, run)
			}
			if !bytes.Equal(got.lines, cold.lines) {
				t.Errorf("%s, %s: line report differs from the cold run's (%d vs %d bytes)", name, run, len(got.lines), len(cold.lines))
			}
			if !bytes.Equal(got.timeline, cold.timeline) {
				t.Errorf("%s, %s: timeline differs from the cold run's (%d vs %d bytes)", name, run, len(got.timeline), len(cold.timeline))
			}
		}
		// A line report forks: the second run finds both entries.
		if !cfg.Timeline && (hitView.Misses() != 0 || hitView.Hits() == 0) {
			t.Errorf("%s: hit run saw %d hits, %d misses; want only hits", name, hitView.Hits(), hitView.Misses())
		}
	}
}

// machineCounts is every simulated counter a run leaves on its machine.
type machineCounts struct {
	Instr   []uint64
	Cores   []sim.CoreStats
	LLC     any
	Dir     any
	Devices []any
}

func countsOf(m *sim.Machine) machineCounts {
	var c machineCounts
	for i := 0; i < m.Cores(); i++ {
		c.Instr = append(c.Instr, m.Core(i).Instructions())
		c.Cores = append(c.Cores, m.Core(i).Stats())
	}
	c.LLC = m.LLC().Stats()
	c.Dir = m.Directory().Stats()
	for _, w := range m.Config().Windows {
		c.Devices = append(c.Devices, m.Device(w.Name).Stats())
	}
	return c
}

// TestEvalPointForksAcrossMeasuredParams is the property behind the
// warm-key contract: specs that differ from a stored one only in
// parameters outside ycsb's WarmParams (mix, ops, threads, theta, seed)
// fork from its checkpoint, and the forked run equals a cold one in
// metrics and in every simulated counter.
func TestEvalPointForksAcrossMeasuredParams(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a dozen KV evaluations; skipped with -short")
	}
	store, err := checkpoint.NewStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	base := ycsbSpec(map[string]any{"seed": 1})
	if _, err := base.EvalPoint(checkpoint.NewContext(context.Background(), store.View()), false); err != nil {
		t.Fatal(err)
	}

	eval := func(ctx context.Context, sp scenario.Spec) (scenario.Metrics, machineCounts) {
		t.Helper()
		var m *sim.Machine
		got, err := sp.EvalPoint(scenario.WithObserver(ctx, func(x *sim.Machine) { m = x }), false)
		if err != nil {
			t.Fatal(err)
		}
		return got, countsOf(m)
	}
	seeded := base
	seeded.Run.Seed = 77
	for name, sp := range map[string]scenario.Spec{
		"mix":      ycsbSpec(map[string]any{"seed": 1, "mix": "B"}),
		"ops":      ycsbSpec(map[string]any{"seed": 1, "ops": 500}),
		"threads":  ycsbSpec(map[string]any{"seed": 1, "threads": 4}),
		"theta":    ycsbSpec(map[string]any{"seed": 1, "theta": 0.6}),
		"seed":     ycsbSpec(map[string]any{"seed": 2}),
		"run.seed": seeded,
	} {
		if err := sp.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		view := store.View()
		warm, warmCounts := eval(checkpoint.NewContext(context.Background(), view), sp)
		if view.Hits() != 1 || view.Misses() != 0 {
			t.Errorf("%s: %d hits, %d misses; want the stored warm state to be forked", name, view.Hits(), view.Misses())
		}
		cold, coldCounts := eval(context.Background(), sp)
		if !reflect.DeepEqual(warm, cold) {
			t.Errorf("%s: forked metrics %v, cold %v", name, warm, cold)
		}
		if !reflect.DeepEqual(warmCounts, coldCounts) {
			t.Errorf("%s: forked sim counts %+v, cold %+v", name, warmCounts, coldCounts)
		}
	}
}

// TestTableLayoutSharesWarmStates is the cross-spec half of the warm-key
// contract: two sweeps that differ only in table layout — title,
// columns, ops list and the set of axes — load the same warm states, so
// every run of the second forks from a checkpoint the first saved.
func TestTableLayoutSharesWarmStates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two small KV sweeps; skipped with -short")
	}
	first := ycsbSpec(nil)
	first.Policy.Ops = []string{"none", "clean"}
	first.Policy.Axes = []scenario.Axis{{Param: "value_size", Values: []any{128, 256}}}
	first.Policy.Columns = []scenario.Column{
		{Title: "value", Axis: "value_size", Format: "bytes"},
		{Title: "gain", Op: "clean", Metric: "ops_per_sec", DenOp: "none", Format: "x2"},
	}
	second := ycsbSpec(nil)
	second.Title = "another table"
	second.Policy.Ops = []string{"skip"}
	second.Policy.Axes = []scenario.Axis{
		{Param: "threads", Values: []any{1, 2}},
		{Param: "value_size", Values: []any{256, 128}},
	}
	second.Policy.Columns = []scenario.Column{
		{Title: "threads", Axis: "threads"},
		{Title: "amp", Op: "skip", Metric: "write_amp", Format: "f2"},
	}
	for _, s := range []scenario.Spec{first, second} {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}

	store, err := checkpoint.NewStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Exec(checkpoint.NewContext(context.Background(), store.View()), io.Discard, false); err != nil {
		t.Fatal(err)
	}
	view := store.View()
	if err := second.Exec(checkpoint.NewContext(context.Background(), view), io.Discard, false); err != nil {
		t.Fatal(err)
	}
	if view.Misses() != 0 || view.Hits() != 4 {
		t.Errorf("second spec: %d hits, %d misses; want all 4 runs to fork", view.Hits(), view.Misses())
	}
}

// TestConcurrentForksShareCheckpoint forks one stored warm state from
// two goroutines at once, as an autotune search with Parallel 2 does.
// Both machines read the checkpoint's pages in place and write their
// own copies: under -race this proves the shared bytes are only read,
// and a fork made afterwards still matches the cold run, so neither
// concurrent fork's writes reached the stored state.
func TestConcurrentForksShareCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several KV evaluations; skipped with -short")
	}
	store, err := checkpoint.NewStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := checkpoint.NewContext(context.Background(), store.View())
	specs := []scenario.Spec{
		ycsbSpec(map[string]any{"seed": 1, "mix": "A"}),
		ycsbSpec(map[string]any{"seed": 1, "mix": "B"}),
	}
	if _, err := specs[0].EvalPoint(ctx, false); err != nil {
		t.Fatal(err)
	}
	hits := store.Hits()

	forked := make([]scenario.Metrics, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, sp := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			forked[i], errs[i] = sp.EvalPoint(ctx, false)
		}()
	}
	wg.Wait()
	if got := store.Hits() - hits; got != uint64(len(specs)) {
		t.Fatalf("%d checkpoint hits for %d concurrent forks", got, len(specs))
	}
	for i, sp := range specs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		cold, err := sp.EvalPoint(context.Background(), false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(forked[i], cold) {
			t.Errorf("spec %d: concurrent fork %v, cold %v", i, forked[i], cold)
		}
		again, err := sp.EvalPoint(ctx, false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, cold) {
			t.Errorf("spec %d: fork after the concurrent pair %v, cold %v", i, again, cold)
		}
	}
}

// TestOldSnapshotFormatLoadsCold stores a warm state whose machine
// payload carries the previous snapshot format's version (5, whose
// caches all wrote per-way stamps) under the current build's key, as a
// disk tier written by an older binary of the same build string holds.
// The run
// must treat it as a miss: load cold, print the cold output, and store
// a fresh checkpoint over it.
func TestOldSnapshotFormatLoadsCold(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small KV sweep three times; skipped with -short")
	}
	spec := ycsbSpec(nil)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	run := func(ctx context.Context) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := spec.Exec(ctx, &buf, false); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cold := run(context.Background())

	store, err := checkpoint.NewStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := checkpoint.NewContext(context.Background(), store.View())
	run(ctx)
	key, err := spec.FirstWarmKey(checkpoint.Build(), false)
	if err != nil {
		t.Fatal(err)
	}
	data, ok := store.Get(key)
	if !ok {
		t.Fatal("the warm run stored no checkpoint")
	}
	old := bytes.Clone(data)
	i := bytes.Index(old, []byte("PSSN")) // the machine payload's magic
	if i < 0 {
		t.Fatal("no machine payload in the checkpoint")
	}
	binary.LittleEndian.PutUint64(old[i+4:], 5)
	store.Put(key, old)

	if got := run(ctx); !bytes.Equal(got, cold) {
		t.Errorf("output over an old-format checkpoint differs from cold:\ncold:\n%s\ngot:\n%s", cold, got)
	}
	if data, _ := store.Get(key); bytes.Equal(data, old) {
		t.Error("the old-format checkpoint was restored instead of replaced by a cold run's")
	}
}

// TestOldRecorderStateLoadsCold stores a recorder state that carries
// the previous encoding's version (PSRS 1, fixed-width records) beside
// a current machine checkpoint, as a disk tier written by an older
// binary of the same build string holds. The recorded run must treat it
// as a miss: load cold, produce the cold run's table and line report,
// and store a fresh recorder state over it.
func TestOldRecorderStateLoadsCold(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small KV sweep three times; skipped with -short")
	}
	spec := ycsbSpec(nil)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := telemetry.Config{LineReport: true}
	run := func(ctx context.Context) (table, lines []byte) {
		t.Helper()
		rec := telemetry.New(cfg)
		var buf, rep bytes.Buffer
		if err := spec.Exec(scenario.WithRecorder(ctx, rec), &buf, false); err != nil {
			t.Fatal(err)
		}
		if err := rec.LineReport(256).WriteJSON(&rep); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), rep.Bytes()
	}
	coldTable, coldLines := run(context.Background())

	store, err := checkpoint.NewStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := checkpoint.NewContext(context.Background(), store.View())
	run(ctx)
	key, err := spec.FirstWarmKey(checkpoint.Build(), false)
	if err != nil {
		t.Fatal(err)
	}
	forkKey := scenario.SiblingKey(key, telemetry.New(cfg).AttachFork(sim.MachineA()).Key())
	data, ok := store.Get(forkKey)
	if !ok || !bytes.HasPrefix(data, []byte("PSRS")) {
		t.Fatal("the recorded run stored no recorder state")
	}
	// The version follows the section tag; the checksum covers it.
	old := bytes.Clone(data[:len(data)-4])
	binary.LittleEndian.PutUint64(old[4:], 1)
	old = binary.LittleEndian.AppendUint32(old, crc32.Checksum(old, crc32.MakeTable(crc32.Castagnoli)))
	store.Put(forkKey, old)

	table, lines := run(ctx)
	if !bytes.Equal(table, coldTable) || !bytes.Equal(lines, coldLines) {
		t.Error("a run over a version-1 recorder state differs from the cold run")
	}
	if data, _ := store.Get(forkKey); bytes.Equal(data, old) {
		t.Error("the version-1 recorder state was restored instead of replaced by a cold run's")
	}
}

// TestWarmStateMachineBytes pins the size of the machine payload of two
// warm states: the post-load snapshot of a kv-tune-shaped search point
// (10,000-record CLHT on machine-a, values in PMEM) and of a service
// ycsb miss (5,000 records on machine-b-slow, values on the FPGA). The
// payload is deterministic, so a change to the snapshot encoding or the
// page size moves these figures, and must move the pins with it. The
// checkpoint envelope around the payload holds the build stamp and is
// not pinned.
func TestWarmStateMachineBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("loads two KV stores cold; skipped with -short")
	}
	spec := func(preset string, params map[string]any) scenario.Spec {
		return scenario.Spec{
			Version:  scenario.Version,
			Name:     "warm-size",
			Machine:  scenario.MachineSpec{Preset: preset},
			Workload: scenario.WorkloadSpec{Name: "ycsb", Params: params},
			Policy: scenario.PolicySpec{
				Ops:     []string{"none"},
				Columns: []scenario.Column{{Title: "elapsed", Op: "none", Metric: "elapsed"}},
			},
		}
	}
	cases := []struct {
		name string
		spec scenario.Spec
		want int
	}{
		{"kv-tune", spec("machine-a", map[string]any{
			"store": "clht", "records": 10000, "ops": 2000, "threads": 2,
			"mix": "A", "window": sim.WindowPMEM, "seed": 1,
		}), 6_317_340},
		{"service-miss", spec("machine-b-slow", map[string]any{
			"records": 5000, "ops": 2000, "threads": 2, "mix": "C", "window": "fpga", "seed": 1,
		}), 3_003_614},
	}
	for _, c := range cases {
		store, err := checkpoint.NewStore(0, "")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.spec.EvalPoint(checkpoint.NewContext(context.Background(), store.View()), false); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		key, err := c.spec.FirstWarmKey(checkpoint.Build(), false)
		if err != nil {
			t.Fatal(err)
		}
		data, ok := store.Get(key)
		if !ok {
			t.Fatalf("%s: the eval stored no warm state", c.name)
		}
		ck, err := sim.DecodeCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(ck.Machine); got != c.want {
			t.Errorf("%s: machine payload is %d bytes; want %d", c.name, got, c.want)
		}
	}
}
