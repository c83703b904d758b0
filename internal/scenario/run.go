package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"prestores/internal/checkpoint"
	"prestores/internal/memdev"
	"prestores/internal/obs"
	"prestores/internal/sim"
	"prestores/internal/telemetry"
	"prestores/internal/units"
)

// observerKey carries a machine observer through a context (see
// WithObserver); recorderKey carries a telemetry recorder (see
// WithRecorder).
type (
	observerKey struct{}
	recorderKey struct{}
)

// WithObserver returns a context that makes Exec and EvalPoint call obs
// with every machine the spec run builds, before the workload runs on
// it. This is the scoped counterpart to sim.ObserveMachines. An
// observer must not record the machine's events: a warm-forked run
// skips its warm phase, so use WithRecorder for telemetry.
func WithObserver(ctx context.Context, obs func(*sim.Machine)) context.Context {
	return context.WithValue(ctx, observerKey{}, obs)
}

func observerFrom(ctx context.Context) func(*sim.Machine) {
	obs, _ := ctx.Value(observerKey{}).(func(*sim.Machine))
	return obs
}

// WithRecorder returns a context that makes Exec and EvalPoint attach
// rec to every machine the spec run builds. A daemon running concurrent
// jobs attaches each job's recorder to that job's machines only, via
// that job's context. The recorded artifacts never depend on the
// checkpoint cache: a line-report recorder forks its state with the
// machine's warm checkpoint (telemetry.Fork), and a run with a timeline
// recorder loads cold.
func WithRecorder(ctx context.Context, rec *telemetry.Recorder) context.Context {
	return context.WithValue(ctx, recorderKey{}, rec)
}

func recorderFrom(ctx context.Context) *telemetry.Recorder {
	rec, _ := ctx.Value(recorderKey{}).(*telemetry.Recorder)
	return rec
}

// Exec runs a validated spec, writing its table to w. quick mode
// applies the axes' Quick value lists and the run.quick parameter
// overrides. The sweep checks ctx before each row and returns silently
// when cancelled, matching the hand-written experiments' contract with
// the bench harness.
func (s *Spec) Exec(ctx context.Context, w io.Writer, quick bool) error {
	wl, ok := Get(s.Workload.Name)
	if !ok {
		return fmt.Errorf("workload.name: unknown workload %q (one of %v)", s.Workload.Name, WorkloadNames())
	}

	base := s.baseParams(quick)
	axes := s.axes(quick)

	titles := make([]string, len(s.Policy.Columns))
	for i, c := range s.Policy.Columns {
		titles[i] = c.Title
	}
	Row(w, titles...)

	warm := s.forks(ctx, wl)

	for idx := make([]int, len(axes)); ; {
		if ctx.Err() != nil {
			return nil
		}
		if err := s.runRow(ctx, w, wl, axes, idx, base, warm); err != nil {
			return err
		}
		if !advance(idx, axes) {
			break
		}
	}
	for _, line := range s.Policy.Footer {
		fmt.Fprintln(w, line)
	}
	return nil
}

// advance steps idx, an odometer over axes whose first axis varies
// slowest, and reports whether it has not wrapped to the first point.
func advance(idx []int, axes []Axis) bool {
	for i := len(axes) - 1; i >= 0; i-- {
		if idx[i]++; idx[i] < len(axes[i].Values) {
			return true
		}
		idx[i] = 0
	}
	return false
}

// axes returns the sweep axes with their effective values: in quick
// mode an axis's Quick list replaces its Values.
func (s *Spec) axes(quick bool) []Axis {
	axes := make([]Axis, len(s.Policy.Axes))
	copy(axes, s.Policy.Axes)
	for i := range axes {
		if quick && len(axes[i].Quick) > 0 {
			axes[i].Values = axes[i].Quick
		}
	}
	return axes
}

// baseParams assembles the effective base parameters for a run: spec
// params + quick overrides + policy placement + seed override + the
// per-site op table (under its reserved key, resolved by SiteOp).
func (s *Spec) baseParams(quick bool) Params {
	base := Params(s.Workload.Params).clone()
	if quick {
		for k, v := range s.Run.Quick {
			base[k] = v
		}
	}
	if s.Policy.Window != "" {
		base["window"] = s.Policy.Window
	}
	if s.Run.Seed != 0 {
		base["seed"] = s.Run.Seed
	}
	if len(s.Policy.Table) > 0 {
		t := make(map[string]string, len(s.Policy.Table))
		for k, v := range s.Policy.Table {
			t[k] = v
		}
		base[siteTableKey] = t
	}
	return base
}

// forks reports whether the spec's runs may fork from the context's
// checkpoint view: the view is there, the workload declares a warm
// phase, and run.cold_start does not opt the spec out. Otherwise every
// run loads cold.
func (s *Spec) forks(ctx context.Context, wl Workload) bool {
	return checkpoint.FromContext(ctx) != nil && wl.RunPhased != nil && !s.Run.ColdStart
}

// runRow executes one grid point (all its ops) and renders the row.
func (s *Spec) runRow(ctx context.Context, w io.Writer, wl Workload, axes []Axis, idx []int, base Params, warm bool) error {
	preset, patches, ops, params := s.point(axes, idx, base)
	results := make(map[string]Metrics, len(ops))
	for _, op := range ops {
		cfg, err := s.machineConfig(preset, patches)
		if err != nil {
			return err
		}
		metrics, err := runOp(ctx, wl, sim.NewMachine(cfg), op, params, warm)
		if err != nil {
			return err
		}
		results[op] = metrics
	}

	cells := make([]string, len(s.Policy.Columns))
	for ci, c := range s.Policy.Columns {
		cells[ci] = s.renderCell(c, axes, idx, ops, results)
	}
	Row(w, cells...)
	return nil
}

// point resolves one grid point: the machine preset it runs on, the
// point's machine.* patches, the ops it runs, and its parameters (the
// base with the point's workload axis values applied).
func (s *Spec) point(axes []Axis, idx []int, base Params) (preset string, patches map[string]any, ops []string, params Params) {
	preset, ops, params = s.Machine.Preset, s.Policy.Ops, base.clone()
	for ai, a := range axes {
		v := a.Values[idx[ai]]
		switch {
		case a.Param == "machine":
			preset = v.(string)
		case a.Param == "op":
			ops = []string{v.(string)}
		case isMachinePath(a.Param):
			if patches == nil {
				patches = map[string]any{}
			}
			patches[a.Param] = v
		default:
			params[a.Param] = v
		}
	}
	return preset, patches, ops, params
}

func (s *Spec) renderCell(c Column, axes []Axis, idx []int, ops []string, results map[string]Metrics) string {
	if c.Axis != "" {
		for ai, a := range axes {
			if a.Param != c.Axis {
				continue
			}
			switch {
			case len(c.Labels) > 0:
				return c.Labels[idx[ai]]
			case len(a.Labels) > 0:
				return a.Labels[idx[ai]]
			}
			return formatCell(c.Format, a.Values[idx[ai]])
		}
		return "?"
	}
	op := c.Op
	if op == "" && len(ops) == 1 {
		op = ops[0] // "op" axis: the row's single run
	}
	num := results[op][c.Metric]
	if c.DenOp != "" {
		den := c.DenMetric
		if den == "" {
			den = c.Metric
		}
		return formatCell(c.Format, num/results[c.DenOp][den])
	}
	return formatCell(c.Format, num)
}

// runParams returns p with the workload's default window filled in
// when p names none: the params the run and its warm key both see, so
// a spec that names the default window shares warm state with one that
// leaves it unset.
func (w Workload) runParams(p Params) Params {
	if w.Window == "" || p.Str("window", "") != "" {
		return p
	}
	p = p.clone()
	p["window"] = w.Window
	return p
}

// runOp runs one op of wl on a freshly built machine. It is the one run
// path behind EvalPoint and Exec: it attaches the context's op sink,
// observer and recorder, and when warm it routes the workload's warm
// phase through the context's checkpoint view under the run's warm key.
func runOp(ctx context.Context, wl Workload, m *sim.Machine, op string, p Params, warm bool) (Metrics, error) {
	m.AttachOps(ctx)
	if observe := observerFrom(ctx); observe != nil {
		observe(m)
	}
	var fork *telemetry.Fork
	if rec := recorderFrom(ctx); rec != nil {
		if fork = rec.AttachFork(m); fork == nil {
			warm = false // a timeline records every event: load cold
		}
	}
	p = wl.runParams(p)
	var key string
	if warm {
		key = warmKey(checkpoint.Build(), wl, m.ConfigHash(), p)
	}
	var metrics Metrics
	var err error
	if key != "" {
		metrics, err = wl.RunPhased(m, op, p, phaseControl(ctx, key, fork))
	} else {
		metrics, err = wl.Run(m, op, p)
	}
	m.FlushOps() // the ops retired since the workload's last drain
	if err != nil {
		return nil, fmt.Errorf("workload %s, op %s: %w", wl.Name, op, err)
	}
	return metrics, nil
}

// phaseControl wires the context's checkpoint view into a
// sim.PhaseControl for one run whose warm state is stored under key
// (nil without a view: the run loads cold). Restore forks the machine
// from the stored post-warmup state; Save encodes and stores it. It is
// the one checkpoint-fork path: every Exec row and EvalPoint (and so
// every autotune candidate) forks through it.
//
// A non-nil fork is the run's recorder share: its state is stored
// beside the machine's under its own key and must hit too, or the run
// loads cold so the recorder sees the warm phase. Save then stores only
// the recorder state, never re-encoding a machine checkpoint the store
// already holds.
//
// Stale or corrupt entries (build, snapshot format or config skew, a
// bad recorder state) count as misses and leave the machine untouched. A restore
// that fails after the header matched panics rather than silently
// re-running the warmup on a half-mutated machine; the bench runner
// contains the panic into Result.Err.
func phaseControl(ctx context.Context, key string, fork *telemetry.Fork) *sim.PhaseControl {
	view := checkpoint.FromContext(ctx)
	if view == nil {
		return nil
	}
	var forkKey string
	if fork != nil {
		forkKey = siblingKey(key, fork.Key())
	}
	machineStored := false
	short := obs.KV("key", key[:12])
	return &sim.PhaseControl{
		Restore: func(m *sim.Machine) ([]byte, bool) {
			// The lookup and restore are separate spans: a miss shows a
			// lookup followed by the full cold load, a hit shows the
			// restore replacing it.
			lctx, lookup := obs.Start(ctx, "checkpoint.lookup", short)
			ck, ok := lookupCheckpoint(view, key, m)
			if ok && fork != nil {
				machineStored = true
				ok = fork.Restore(view, forkKey) == nil
			}
			lookup.SetAttr("hit", fmt.Sprint(ok))
			lookup.End()
			if !ok {
				return nil, false
			}
			_, restore := obs.Start(lctx, "checkpoint.restore", short)
			defer restore.End()
			if err := ck.Restore(m); err != nil {
				panic(fmt.Sprintf("checkpoint %s: restore failed: %v", key[:12], err))
			}
			return ck.Annex, true
		},
		Save: func(m *sim.Machine, annex []byte) {
			_, save := obs.Start(ctx, "checkpoint.save", short)
			defer save.End()
			if fork != nil {
				if data, ok := fork.Save(); ok {
					view.Put(forkKey, data)
				}
			}
			if machineStored {
				return
			}
			ck, err := m.NewCheckpoint(checkpoint.Build(), annex)
			if err != nil {
				return // machine not snapshottable: later runs load cold
			}
			view.Put(key, ck.Encode())
		},
	}
}

// lookupCheckpoint fetches and decodes the machine checkpoint under
// key, reporting a miss for an absent, corrupt or stale (other build,
// other snapshot format, other machine config) entry.
func lookupCheckpoint(view *checkpoint.View, key string, m *sim.Machine) (*sim.Checkpoint, bool) {
	data, ok := view.Get(key)
	if !ok {
		return nil, false
	}
	ck, err := sim.DecodeCheckpoint(data)
	if err != nil || ck.Build != checkpoint.Build() || ck.Check(m) != nil {
		return nil, false
	}
	return ck, true
}

// machineConfig resolves the machine of one run: the preset or custom
// config, with the spec's device patches and the row's machine.* axis
// values applied. A preset run with neither gets the preset as is;
// every other run goes through patchMachine, which rebuilds each
// window's device, so runs never share device state.
func (s *Spec) machineConfig(preset string, row map[string]any) (sim.Config, error) {
	var cfg sim.Config
	switch {
	case preset != "":
		c, ok := sim.PresetConfig(preset)
		if !ok {
			return cfg, fmt.Errorf("machine.preset: unknown preset %q (one of %v)", preset, presetNames())
		}
		if len(s.Machine.Devices) == 0 && len(row) == 0 {
			return c, nil
		}
		cfg = c
	case s.Machine.Config != nil:
		cfg = *s.Machine.Config // holds live device instances
	default:
		return cfg, fmt.Errorf("machine: no machine resolved for this row")
	}
	return patchMachine(cfg, s.Machine.Devices, row)
}

// Machine patch paths. machine.<field> names a field of sim.Config's
// JSON form (machine.drain, machine.llc.policy); machine.devices.
// <window>.<parameter> names a memdev.Spec parameter of one window's
// device (machine.devices.pmem.buffer_entries).
const (
	machinePrefix = "machine."
	devicesPrefix = "machine.devices."
)

func isMachinePath(param string) bool { return strings.HasPrefix(param, machinePrefix) }

// patchMachine is the one way a spec varies a machine: it returns base
// with the path → value patches applied over the device map (window →
// memdev parameters, the spec's machine.devices), every window's device
// rebuilt from its memdev.Spec so the result shares no device state
// with base. Config fields are set together on the config's JSON form,
// which then decodes once like a custom machine.config: unknown fields,
// mistyped values and invalid configs are errors, and whether a set of
// patches is valid does not depend on their order. A device parameter
// goes through memdev.Spec.Apply. Numbers pass through asFloat, so a Go
// literal in a registered spec and its JSON-decoded twin patch alike.
// Errors name the patch path.
func patchMachine(base sim.Config, devices map[string]map[string]any, patches map[string]any) (sim.Config, error) {
	params := map[string]map[string]any{} // window → device parameters
	set := func(win, param string, v any) {
		if f, ok := asFloat(v); ok {
			v = f
		}
		if params[win] == nil {
			params[win] = map[string]any{}
		}
		params[win][param] = v
	}
	for win, p := range devices {
		for k, v := range p {
			set(win, k, v)
		}
	}
	fields := map[string]any{}
	for _, path := range sortedKeys(patches) {
		rest, ok := strings.CutPrefix(path, devicesPrefix)
		if !ok {
			fields[path] = patches[path]
			continue
		}
		// Parameter names hold no dot; window names may.
		dot := strings.LastIndexByte(rest, '.')
		if dot <= 0 {
			return base, fmt.Errorf("%s: want %s<window>.<parameter>", path, devicesPrefix)
		}
		set(rest[:dot], rest[dot+1:], patches[path])
	}
	cfg, err := patchFields(base, fields)
	if err != nil {
		return base, err
	}
	for _, win := range sortedKeys(params) {
		if !slices.ContainsFunc(cfg.Windows, func(ws sim.WindowSpec) bool { return ws.Name == win }) {
			return base, fmt.Errorf("machine.devices.%s: no such window (machine %s has %v)", win, cfg.Name, windowNames(cfg))
		}
	}
	windows := make([]sim.WindowSpec, len(cfg.Windows))
	for i, ws := range cfg.Windows {
		spec, ok := memdev.Describe(ws.Device)
		if !ok {
			return base, fmt.Errorf("machine.devices.%s: window device is not patchable", ws.Name)
		}
		spec, err := spec.Apply(params[ws.Name])
		if err == nil {
			ws.Device, err = spec.Build()
		}
		if err != nil {
			return base, fmt.Errorf("machine.devices.%s.%v", ws.Name, err)
		}
		windows[i] = ws
	}
	cfg.Windows = windows
	return cfg, nil
}

// patchFields sets each field machine.<a>.<b>... of cfg's JSON form to
// its value and decodes the result once.
func patchFields(cfg sim.Config, fields map[string]any) (sim.Config, error) {
	if len(fields) == 0 {
		return cfg, nil
	}
	paths := sortedKeys(fields)
	data, err := json.Marshal(cfg)
	if err != nil {
		return cfg, fmt.Errorf("%s: %v", paths[0], err)
	}
	var doc map[string]any
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber() // 64-bit seeds survive the round trip exactly
	if err := dec.Decode(&doc); err != nil {
		return cfg, fmt.Errorf("%s: %v", paths[0], err)
	}
	for _, path := range paths {
		keys := strings.Split(strings.TrimPrefix(path, machinePrefix), ".")
		if keys[0] == "windows" {
			return cfg, fmt.Errorf("%s: patch a window's device through %s<window>.<parameter>", path, devicesPrefix)
		}
		obj := doc
		for _, k := range keys[:len(keys)-1] {
			next, ok := obj[k].(map[string]any)
			if !ok {
				return cfg, fmt.Errorf("%s: unknown machine field", path)
			}
			obj = next
		}
		v := fields[path]
		if f, ok := asFloat(v); ok {
			v = f
		}
		obj[keys[len(keys)-1]] = v
	}
	if data, err = json.Marshal(doc); err != nil {
		return cfg, fmt.Errorf("%s: %v", paths[0], err)
	}
	var out sim.Config
	var te *json.UnmarshalTypeError
	switch err := json.Unmarshal(data, &out); {
	case err == nil:
		return out, nil
	case errors.As(err, &te):
		path := machinePrefix + te.Field
		return cfg, fmt.Errorf("%s: must be of type %s (got %v)", path, te.Type.Kind(), fields[path])
	case strings.HasPrefix(err.Error(), "json: unknown field"):
		// The error names only the key; name the patch that set it.
		key := "." + strings.Trim(strings.TrimPrefix(err.Error(), "json: unknown field "), `"`)
		i := slices.IndexFunc(paths, func(p string) bool { return strings.HasSuffix(p, key) })
		return cfg, fmt.Errorf("%s: unknown machine field", paths[max(i, 0)])
	default:
		return cfg, fmt.Errorf("%s%v", machinePrefix, err) // a field-path error from sim
	}
}

// formatCell renders one value. The formats replicate the hand-written
// experiments' fmt verbs exactly, so spec-ified experiments stay
// byte-identical to their legacy rendering:
//
//	plain  fmt.Sprint(v)
//	bytes  units.Bytes (value must be a non-negative integer)
//	f0/f1/f2  %.0f / %.1f / %.2f
//	x2     %.2fx (ratio)
//	pct    %+.1f%% of (ratio-1)*100
//	cyc0   %.0f cyc
//	drop0  -%.0f%% of 100*(1-ratio)
//	mops   %.2fM/s of v/1e6
//	m1     %.1f of v/1e6 (millions, e.g. Mcyc)
func formatCell(format string, v any) string {
	f, isNum := asFloat(v)
	switch format {
	case "", "plain":
		return fmt.Sprint(v)
	case "bytes":
		if !isNum {
			return fmt.Sprint(v)
		}
		return units.Bytes(uint64(f))
	case "f0":
		return fmt.Sprintf("%.0f", f)
	case "f1":
		return fmt.Sprintf("%.1f", f)
	case "f2":
		return fmt.Sprintf("%.2f", f)
	case "x2":
		return fmt.Sprintf("%.2fx", f)
	case "pct":
		return fmt.Sprintf("%+.1f%%", (f-1)*100)
	case "cyc0":
		return fmt.Sprintf("%.0f cyc", f)
	case "drop0":
		return fmt.Sprintf("-%.0f%%", 100*(1-f))
	case "mops":
		return fmt.Sprintf("%.2fM/s", f/1e6)
	case "m1":
		return fmt.Sprintf("%.1f", f/1e6)
	}
	return fmt.Sprint(v)
}

// Row writes one line of the fixed-width tables every experiment
// prints, header or data: each cell right-aligned in 12 columns, two
// spaces apart.
func Row(w io.Writer, cells ...string) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(w, "  ")
		}
		fmt.Fprintf(w, "%12s", c)
	}
	fmt.Fprintln(w)
}
