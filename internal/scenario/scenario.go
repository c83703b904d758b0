// Package scenario turns the repo's evaluation matrix into data: a
// versioned, JSON-serializable Spec names a machine (preset or fully
// parameterized), a registered workload with typed parameters, a
// pre-store policy (ops, placement window, sweep axes, table columns),
// and run controls (quick overrides, point budget, seed). The grid
// runner executes the spec deterministically and renders the same
// fixed-width tables internal/bench prints, so named experiments can
// be re-expressed as specs without disturbing the golden output guard,
// and the prestored daemon can serve arbitrary custom scenarios.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"prestores/internal/memdev"
	"prestores/internal/sim"
)

// Version is the spec schema version this package reads and writes.
const Version = 1

// DefaultMaxPoints bounds the sweep grid (rows × ops) when a spec does
// not set run.max_points — the daemon's guard against accidental or
// hostile combinatorial blow-ups.
const DefaultMaxPoints = 4096

// MachineSpec selects the machine: exactly one of a named preset, a
// full custom sim.Config, or a "machine" sweep axis in the policy.
// Devices optionally patches per-window device parameters on top of
// whichever machine each run uses (window name → memdev parameter map).
type MachineSpec struct {
	Preset  string                    `json:"preset,omitempty"`
	Config  *sim.Config               `json:"config,omitempty"`
	Devices map[string]map[string]any `json:"devices,omitempty"`
}

// WorkloadSpec names a registered workload and its parameters.
type WorkloadSpec struct {
	Name   string         `json:"name"`
	Params map[string]any `json:"params,omitempty"`
}

// Axis is one sweep dimension: a workload parameter name, or the
// special axes "machine" (values are preset names) and "op" (values
// are pre-store op names; rows then run that single op). The first
// axis varies slowest. Quick, when set, replaces Values in quick mode.
// Labels, when set, replace the rendered value in axis columns.
type Axis struct {
	Param  string   `json:"param"`
	Values []any    `json:"values"`
	Quick  []any    `json:"quick,omitempty"`
	Labels []string `json:"labels,omitempty"`
}

// Column defines one table column.
//   - Axis != "":  render that axis's value (or label) for the row.
//   - DenOp != "": ratio of Op's Metric over DenOp's DenMetric
//     (DenMetric defaults to Metric).
//   - otherwise:   the value of Metric from Op's run.
//
// With an "op" axis, Op and DenOp stay empty and Metric reads the
// row's single run.
type Column struct {
	Title     string `json:"title"`
	Axis      string `json:"axis,omitempty"`
	Op        string `json:"op,omitempty"`
	Metric    string `json:"metric,omitempty"`
	DenOp     string `json:"den_op,omitempty"`
	DenMetric string `json:"den_metric,omitempty"`
	Format    string `json:"format,omitempty"`
}

// PolicySpec is the pre-store policy under test: which ops each row
// runs, where pre-stored data is placed, the sweep axes, and how the
// resulting table is laid out.
type PolicySpec struct {
	Ops    []string `json:"ops,omitempty"`
	Window string   `json:"window,omitempty"` // placement: overrides the workload's "window" param
	// Table overrides the pre-store op per workload site (site name →
	// op). Sites the table does not name fall back to the row's op. Only
	// workloads that declare Sites accept a table; the autotuner searches
	// over this field.
	Table   map[string]string `json:"table,omitempty"`
	Axes    []Axis            `json:"axes,omitempty"`
	Columns []Column          `json:"columns"`
	Footer  []string          `json:"footer,omitempty"`
}

// RunSpec holds run controls.
type RunSpec struct {
	// Quick overrides workload parameters in quick mode (axis Quick
	// lists shrink the grid; these shrink per-run work).
	Quick map[string]any `json:"quick,omitempty"`
	// Seed, when non-zero, overrides the workload's "seed" parameter.
	Seed uint64 `json:"seed,omitempty"`
	// MaxPoints caps rows × ops; 0 means DefaultMaxPoints.
	MaxPoints int `json:"max_points,omitempty"`
	// ColdStart disables warm-state checkpoint forking for this spec
	// even when the runner has a checkpoint view: every point loads from
	// scratch. Telemetry never needs it: recorded artifacts do not depend
	// on the checkpoint cache (see WithRecorder).
	ColdStart bool `json:"cold_start,omitempty"`
}

// TelemetrySpec opts a spec run into telemetry capture (see
// internal/telemetry). At least one of Timeline / LineReport must be
// set. The block is optional and omitted from the canonical form when
// absent, so specs without it keep their content-addressed identity.
type TelemetrySpec struct {
	// Timeline records a simulated-cycle timeline (Chrome trace-event
	// JSON, Perfetto-loadable).
	Timeline bool `json:"timeline,omitempty"`
	// LineReport records per-cache-line attribution and per-bucket
	// write amplification.
	LineReport bool `json:"line_report,omitempty"`
	// MaxEvents caps the timeline ring (0 = recorder default).
	MaxEvents int `json:"max_events,omitempty"`
	// BucketBytes sets the write-amp bucket size (0 = default).
	BucketBytes uint64 `json:"bucket_bytes,omitempty"`
}

// MaxTelemetryEvents bounds telemetry.max_events — the daemon's guard
// against a spec requesting an absurdly large ring.
const MaxTelemetryEvents = 4 << 20

// Spec is one complete declarative scenario.
type Spec struct {
	Version   int            `json:"version"`
	Name      string         `json:"name,omitempty"`
	Title     string         `json:"title,omitempty"`
	Paper     string         `json:"paper,omitempty"`
	Machine   MachineSpec    `json:"machine"`
	Workload  WorkloadSpec   `json:"workload"`
	Policy    PolicySpec     `json:"policy"`
	Run       RunSpec        `json:"run,omitempty"`
	Telemetry *TelemetrySpec `json:"telemetry,omitempty"`
}

// Decode parses a JSON spec strictly (unknown fields are errors) and
// validates it. Arbitrary input never panics; errors are deterministic.
func Decode(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, err
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Canonical returns the canonical JSON form of a validated spec:
// fixed struct field order, map keys sorted (encoding/json), no
// insignificant whitespace. Two specs with equal canonical bytes are
// the same scenario; the daemon's cache key hashes this form.
func (s Spec) Canonical() ([]byte, error) {
	return json.Marshal(s)
}

// Key returns the content-addressed identity of the spec: the hex
// SHA-256 of its canonical form.
func (s Spec) Key() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}

// formatNames lists the accepted column formats (see formatCell).
var formatNames = []string{"bytes", "cyc0", "drop0", "f0", "f1", "f2", "mops", "pct", "plain", "x2"}

func knownFormat(f string) bool {
	for _, n := range formatNames {
		if f == n {
			return true
		}
	}
	return false
}

// Formats returns the accepted column format names, sorted.
func Formats() []string {
	out := make([]string, len(formatNames))
	copy(out, formatNames)
	return out
}

func checkParamValue(path string, def ParamDef, v any) error {
	switch def.Kind {
	case KindBool:
		if _, ok := v.(bool); !ok {
			return fmt.Errorf("%s: must be a bool (got %v)", path, v)
		}
	case KindString:
		if _, ok := v.(string); !ok {
			return fmt.Errorf("%s: must be a string (got %v)", path, v)
		}
	case KindFloat:
		if _, ok := asFloat(v); !ok {
			return fmt.Errorf("%s: must be a number (got %v)", path, v)
		}
	case KindInt:
		f, ok := asFloat(v)
		if !ok {
			return fmt.Errorf("%s: must be an integer (got %v)", path, v)
		}
		if f != float64(int64(f)) {
			return fmt.Errorf("%s: must be an integer (got %g)", path, f)
		}
		if f < 0 {
			return fmt.Errorf("%s: must be non-negative (got %g)", path, f)
		}
	}
	return nil
}

func checkParamMap(prefix string, w Workload, params map[string]any) error {
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		def, ok := w.paramDef(k)
		if !ok {
			return fmt.Errorf("%s.%s: unknown parameter (workload %s accepts %v)",
				prefix, k, w.Name, w.paramNames())
		}
		if err := checkParamValue(prefix+"."+k, def, params[k]); err != nil {
			return err
		}
	}
	return nil
}

func presetNames() []string {
	ps := sim.Presets()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// axis lookup helpers on the spec.

func (s *Spec) axisFor(param string) (Axis, bool) {
	for _, a := range s.Policy.Axes {
		if a.Param == param {
			return a, true
		}
	}
	return Axis{}, false
}

func (s *Spec) hasAxis(param string) bool {
	_, ok := s.axisFor(param)
	return ok
}

// Validate checks the spec against the registries. The first problem
// found is returned; error strings are deterministic and name the
// offending field path (e.g. "policy.axes[1].values[0]").
func (s *Spec) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("version: must be %d (got %d)", Version, s.Version)
	}

	// Workload first: axes and columns validate against it.
	if s.Workload.Name == "" {
		return fmt.Errorf("workload.name: required (one of %v)", WorkloadNames())
	}
	w, ok := Get(s.Workload.Name)
	if !ok {
		return fmt.Errorf("workload.name: unknown workload %q (one of %v)", s.Workload.Name, WorkloadNames())
	}
	if err := checkParamMap("workload.params", w, s.Workload.Params); err != nil {
		return err
	}

	// Machine: exactly one source.
	sources := 0
	if s.Machine.Preset != "" {
		sources++
	}
	if s.Machine.Config != nil {
		sources++
	}
	if s.hasAxis("machine") {
		sources++
	}
	switch {
	case sources == 0:
		return fmt.Errorf("machine: one of machine.preset, machine.config, or a %q axis is required", "machine")
	case sources > 1:
		return fmt.Errorf("machine: machine.preset, machine.config, and a %q axis are mutually exclusive", "machine")
	}
	if s.Machine.Preset != "" {
		if _, ok := sim.PresetConfig(s.Machine.Preset); !ok {
			return fmt.Errorf("machine.preset: unknown preset %q (one of %v)", s.Machine.Preset, presetNames())
		}
	}
	if s.Machine.Config != nil {
		if err := s.Machine.Config.Validate(); err != nil {
			return fmt.Errorf("machine.config.%v", err)
		}
	}
	if len(s.Machine.Devices) > 0 {
		if err := s.validateDevicePatches(); err != nil {
			return err
		}
	}

	// Axes.
	seenAxes := map[string]bool{}
	for i, a := range s.Policy.Axes {
		path := fmt.Sprintf("policy.axes[%d]", i)
		if a.Param == "" {
			return fmt.Errorf("%s.param: required", path)
		}
		if seenAxes[a.Param] {
			return fmt.Errorf("%s.param: duplicate axis %q", path, a.Param)
		}
		seenAxes[a.Param] = true
		var def ParamDef
		switch a.Param {
		case "machine", "op":
			def = ParamDef{Name: a.Param, Kind: KindString}
		default:
			d, ok := w.paramDef(a.Param)
			if !ok {
				return fmt.Errorf("%s.param: unknown axis %q (machine, op, or one of workload params %v)",
					path, a.Param, w.paramNames())
			}
			def = d
		}
		if len(a.Values) == 0 {
			return fmt.Errorf("%s.values: at least one value required", path)
		}
		for vi, v := range a.Values {
			if err := s.checkAxisValue(fmt.Sprintf("%s.values[%d]", path, vi), a.Param, def, v, w); err != nil {
				return err
			}
		}
		for vi, v := range a.Quick {
			if err := s.checkAxisValue(fmt.Sprintf("%s.quick[%d]", path, vi), a.Param, def, v, w); err != nil {
				return err
			}
		}
		if len(a.Labels) > 0 {
			if len(a.Labels) != len(a.Values) {
				return fmt.Errorf("%s.labels: got %d labels for %d values", path, len(a.Labels), len(a.Values))
			}
			if len(a.Quick) > 0 && len(a.Quick) != len(a.Values) {
				return fmt.Errorf("%s.labels: labels require quick and values to have equal length (got %d quick, %d values)",
					path, len(a.Quick), len(a.Values))
			}
		}
	}

	if err := s.validateWindows(w); err != nil {
		return err
	}

	// Ops.
	opAxis := s.hasAxis("op")
	if opAxis && len(s.Policy.Ops) > 0 {
		return fmt.Errorf("policy.ops: must be empty when an %q axis is defined", "op")
	}
	if !opAxis {
		if len(s.Policy.Ops) == 0 {
			return fmt.Errorf("policy.ops: at least one op required (workload %s supports %v)", w.Name, w.Ops)
		}
		seenOps := map[string]bool{}
		for i, op := range s.Policy.Ops {
			if seenOps[op] {
				return fmt.Errorf("policy.ops[%d]: duplicate op %q", i, op)
			}
			seenOps[op] = true
			if !w.hasOp(op) {
				return fmt.Errorf("policy.ops[%d]: unknown op %q (workload %s supports %v)", i, op, w.Name, w.Ops)
			}
		}
	}

	// Per-site op table.
	if len(s.Policy.Table) > 0 {
		if len(w.Sites) == 0 {
			return fmt.Errorf("policy.table: workload %s declares no pre-store sites", w.Name)
		}
		sites := make([]string, 0, len(s.Policy.Table))
		for site := range s.Policy.Table {
			sites = append(sites, site)
		}
		sort.Strings(sites)
		for _, site := range sites {
			if !containsStr(w.Sites, site) {
				return fmt.Errorf("policy.table.%s: unknown site (workload %s has sites %v)", site, w.Name, w.Sites)
			}
			if op := s.Policy.Table[site]; !w.hasOp(op) {
				return fmt.Errorf("policy.table.%s: unknown op %q (workload %s supports %v)", site, s.Policy.Table[site], w.Name, w.Ops)
			}
		}
	}

	// Columns.
	if len(s.Policy.Columns) == 0 {
		return fmt.Errorf("policy.columns: at least one column required")
	}
	for i, c := range s.Policy.Columns {
		path := fmt.Sprintf("policy.columns[%d]", i)
		if c.Title == "" {
			return fmt.Errorf("%s.title: required", path)
		}
		if c.Format != "" && !knownFormat(c.Format) {
			return fmt.Errorf("%s.format: unknown format %q (one of %v)", path, c.Format, formatNames)
		}
		if c.Axis != "" {
			if !seenAxes[c.Axis] {
				return fmt.Errorf("%s.axis: no axis %q defined", path, c.Axis)
			}
			continue
		}
		if c.Metric == "" {
			return fmt.Errorf("%s.metric: required (workload %s reports %v)", path, w.Name, w.MetricNames)
		}
		if !w.hasMetric(c.Metric) {
			return fmt.Errorf("%s.metric: unknown metric %q (workload %s reports %v)", path, c.Metric, w.Name, w.MetricNames)
		}
		if c.DenMetric != "" && !w.hasMetric(c.DenMetric) {
			return fmt.Errorf("%s.den_metric: unknown metric %q (workload %s reports %v)", path, c.DenMetric, w.Name, w.MetricNames)
		}
		if opAxis {
			if c.Op != "" {
				return fmt.Errorf("%s.op: must be empty when op is an axis", path)
			}
			if c.DenOp != "" {
				return fmt.Errorf("%s.den_op: must be empty when op is an axis", path)
			}
			continue
		}
		if c.Op == "" {
			return fmt.Errorf("%s.op: required (policy.ops %v)", path, s.Policy.Ops)
		}
		if !containsStr(s.Policy.Ops, c.Op) {
			return fmt.Errorf("%s.op: %q not in policy.ops %v", path, c.Op, s.Policy.Ops)
		}
		if c.DenOp != "" && !containsStr(s.Policy.Ops, c.DenOp) {
			return fmt.Errorf("%s.den_op: %q not in policy.ops %v", path, c.DenOp, s.Policy.Ops)
		}
	}

	// Telemetry.
	if t := s.Telemetry; t != nil {
		if !t.Timeline && !t.LineReport {
			return fmt.Errorf("telemetry: at least one of timeline or line_report must be true")
		}
		if t.MaxEvents < 0 {
			return fmt.Errorf("telemetry.max_events: must be non-negative (got %d)", t.MaxEvents)
		}
		if t.MaxEvents > MaxTelemetryEvents {
			return fmt.Errorf("telemetry.max_events: %d exceeds the limit of %d", t.MaxEvents, MaxTelemetryEvents)
		}
	}

	// Run controls.
	if err := checkParamMap("run.quick", w, s.Run.Quick); err != nil {
		return err
	}
	if s.Run.MaxPoints < 0 {
		return fmt.Errorf("run.max_points: must be non-negative (got %d)", s.Run.MaxPoints)
	}
	budget := s.Run.MaxPoints
	if budget == 0 {
		budget = DefaultMaxPoints
	}
	points := 1
	for _, a := range s.Policy.Axes {
		points *= len(a.Values)
		if points > budget {
			break
		}
	}
	if !opAxis {
		points *= len(s.Policy.Ops)
	}
	if points > budget {
		return fmt.Errorf("policy.axes: grid of %d points exceeds the budget of %d (raise run.max_points)", points, budget)
	}
	return nil
}

func (s *Spec) checkAxisValue(path, param string, def ParamDef, v any, w Workload) error {
	switch param {
	case "machine":
		name, ok := v.(string)
		if !ok {
			return fmt.Errorf("%s: must be a preset name string (got %v)", path, v)
		}
		if _, ok := sim.PresetConfig(name); !ok {
			return fmt.Errorf("%s: unknown preset %q (one of %v)", path, name, presetNames())
		}
	case "op":
		op, ok := v.(string)
		if !ok {
			return fmt.Errorf("%s: must be an op name string (got %v)", path, v)
		}
		if !w.hasOp(op) {
			return fmt.Errorf("%s: unknown op %q (workload %s supports %v)", path, op, w.Name, w.Ops)
		}
	default:
		return checkParamValue(path, def, v)
	}
	return nil
}

// machineConfigs returns the base config of every machine a row of the
// spec can run on: the custom config, the preset, or each preset the
// "machine" axis names (values and quick values).
func (s *Spec) machineConfigs() []sim.Config {
	switch {
	case s.Machine.Config != nil:
		return []sim.Config{*s.Machine.Config}
	case s.Machine.Preset != "":
		cfg, _ := sim.PresetConfig(s.Machine.Preset)
		return []sim.Config{cfg}
	}
	axis, _ := s.axisFor("machine")
	var bases []sim.Config
	for _, v := range append(append([]any(nil), axis.Values...), axis.Quick...) {
		if name, ok := v.(string); ok {
			if cfg, ok := sim.PresetConfig(name); ok {
				bases = append(bases, cfg)
			}
		}
	}
	return bases
}

func windowNames(cfg sim.Config) []string {
	names := make([]string, len(cfg.Windows))
	for i, ws := range cfg.Windows {
		names[i] = ws.Name
	}
	return names
}

// validateDevicePatches checks machine.devices against the windows of
// the machine(s) the spec can resolve.
func (s *Spec) validateDevicePatches() error {
	names := make([]string, 0, len(s.Machine.Devices))
	for n := range s.Machine.Devices {
		names = append(names, n)
	}
	sort.Strings(names)
	bases := s.machineConfigs()
	for _, win := range names {
		for _, base := range bases {
			found := false
			for _, ws := range base.Windows {
				if ws.Name == win {
					found = true
					spec, ok := memdev.Describe(ws.Device)
					if !ok {
						return fmt.Errorf("machine.devices.%s: window device is not patchable", win)
					}
					if _, err := spec.Apply(s.Machine.Devices[win]); err != nil {
						return fmt.Errorf("machine.devices.%s.%v", win, err)
					}
				}
			}
			if !found {
				return fmt.Errorf("machine.devices.%s: no such window (machine %s has %v)", win, base.Name, windowNames(base))
			}
		}
	}
	return nil
}

// validateWindows checks every window a run can place data in —
// policy.window, workload.params.window, run.quick.window, a "window"
// axis's values, and the workload's default window when none of those
// replaces it — against the windows of every machine the spec can run
// on, so a placement the machine lacks is a validation error instead of
// a failure mid-run.
func (s *Spec) validateWindows(w Workload) error {
	type use struct {
		path string
		v    any
	}
	var uses []use
	if s.Policy.Window != "" {
		uses = append(uses, use{"policy.window", s.Policy.Window})
	}
	if v, ok := s.Workload.Params["window"]; ok {
		uses = append(uses, use{"workload.params.window", v})
	}
	if v, ok := s.Run.Quick["window"]; ok {
		uses = append(uses, use{"run.quick.window", v})
	}
	for i, a := range s.Policy.Axes {
		if a.Param != "window" {
			continue
		}
		for vi, v := range a.Values {
			uses = append(uses, use{fmt.Sprintf("policy.axes[%d].values[%d]", i, vi), v})
		}
		for vi, v := range a.Quick {
			uses = append(uses, use{fmt.Sprintf("policy.axes[%d].quick[%d]", i, vi), v})
		}
	}
	// The default applies to every run that nothing above places;
	// run.quick.window places only the quick runs.
	param, _ := s.Workload.Params["window"].(string)
	defaulted := w.Window != "" && param == "" && s.Policy.Window == "" && !s.hasAxis("window")
	for _, base := range s.machineConfigs() {
		names := windowNames(base)
		for _, u := range uses {
			if name, _ := u.v.(string); name != "" && !containsStr(names, name) {
				return fmt.Errorf("%s: unknown window %q (machine %s has %v)", u.path, name, base.Name, names)
			}
		}
		if defaulted && !containsStr(names, w.Window) {
			return fmt.Errorf("workload.params.window: required: workload %s's default window %q is not on machine %s (has %v)",
				w.Name, w.Window, base.Name, names)
		}
	}
	return nil
}

func containsStr(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
