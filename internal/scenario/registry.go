package scenario

import (
	"fmt"
	"sort"

	"prestores/internal/sim"
)

// Metrics is what one workload run reports: named scalar results
// (cycles, amplification factors, throughput). Column definitions in a
// Spec reference these names.
type Metrics map[string]float64

// Params carries a workload's decoded parameters. Values are JSON
// scalars (float64, bool, string) or native Go scalars when a spec is
// built in code; the typed getters below normalize. Validation against
// the workload's ParamDefs happens before Run sees the map, so getters
// are lenient.
type Params map[string]any

func asFloat(v any) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case int:
		return float64(n), true
	case int64:
		return float64(n), true
	case uint64:
		return float64(n), true
	case uint32:
		return float64(n), true
	}
	return 0, false
}

// Int returns the named integer parameter, or def when absent.
func (p Params) Int(name string, def int) int {
	if v, ok := p[name]; ok {
		if f, ok := asFloat(v); ok {
			return int(f)
		}
	}
	return def
}

// Uint64 returns the named integer parameter, or def when absent.
func (p Params) Uint64(name string, def uint64) uint64 {
	if v, ok := p[name]; ok {
		if f, ok := asFloat(v); ok {
			return uint64(f)
		}
	}
	return def
}

// Float returns the named float parameter, or def when absent.
func (p Params) Float(name string, def float64) float64 {
	if v, ok := p[name]; ok {
		if f, ok := asFloat(v); ok {
			return f
		}
	}
	return def
}

// Bool returns the named bool parameter, or def when absent.
func (p Params) Bool(name string, def bool) bool {
	if v, ok := p[name]; ok {
		if b, ok := v.(bool); ok {
			return b
		}
	}
	return def
}

// Str returns the named string parameter, or def when absent.
func (p Params) Str(name, def string) string {
	if v, ok := p[name]; ok {
		if s, ok := v.(string); ok {
			return s
		}
	}
	return def
}

func (p Params) clone() Params {
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Param kinds.
const (
	KindInt    = "int"    // non-negative integer
	KindFloat  = "float"  // real number
	KindBool   = "bool"   // true/false
	KindString = "string" // free-form or enumerated string
)

// ParamDef declares one typed workload parameter for validation and
// the /v1/registry listing.
type ParamDef struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // KindInt, KindFloat, KindBool, KindString
	Help string `json:"help,omitempty"`
}

// Workload is one registered workload: a named, parameterized
// simulation entry point the scenario grid runner can invoke. Workload
// packages register themselves at init time via Register.
type Workload struct {
	Name        string
	Description string
	Params      []ParamDef // accepted parameters, for validation + registry
	Ops         []string   // supported pre-store ops (e.g. none, clean, skip, demote)
	MetricNames []string   // metric names Run reports, for column validation
	// Window is the memory window the workload places its data in when
	// a run names none; empty for workloads without a "window" param.
	// The runner passes it to Run as that param, and Validate checks it
	// against the machine like an explicit window.
	Window string
	// Run executes the workload once on a fresh machine under the given
	// pre-store op and returns its metrics. Implementations must be
	// deterministic for fixed (machine config, op, params).
	Run func(m *sim.Machine, op string, p Params) (Metrics, error)
	// WarmParams lists the parameters that determine the workload's warm
	// (load) phase. Grid points differing only in other parameters or in
	// the pre-store op share one post-warmup machine state, so the runner
	// may fork them from a memoized checkpoint. Empty means the workload
	// declares no checkpointable phase boundary.
	WarmParams []string
	// RunPhased, when set, is the checkpoint-aware variant of Run: the
	// workload routes its warmup through pc (sim.PhaseControl), restoring
	// a memoized post-warmup state on a hit and offering its own on a
	// miss. Must produce metrics byte-identical to Run for the same
	// inputs — the golden guard runs both paths.
	RunPhased func(m *sim.Machine, op string, p Params, pc *sim.PhaseControl) (Metrics, error)
	// Sites names the workload's pre-store call sites, in declaration
	// order. A workload with sites resolves each site's op through
	// SiteOp, so a spec's policy.table (and the autotuner searching over
	// it) can choose demote/clean/skip per site instead of one op for
	// the whole run. Site ops apply to the measured phase only — the
	// warm phase is baseline-crafted regardless (the checkpoint contract
	// depends on this).
	Sites []string
}

// siteTableKey is the reserved Params key the grid runner uses to hand
// a spec's policy.table to the workload. It is injected at run time and
// never appears in a spec's workload.params (validation rejects unknown
// parameter names, and names are workload-declared).
const siteTableKey = "__site_table"

// SiteOp resolves the pre-store op for one named call site: the
// policy.table entry for the site when the run carries one, otherwise
// the row's op. Workloads with Sites call this once per site at the
// start of the measured phase.
func SiteOp(p Params, site, rowOp string) string {
	if t, ok := p[siteTableKey].(map[string]string); ok {
		if op, ok := t[site]; ok && op != "" {
			return op
		}
	}
	return rowOp
}

var workloadRegistry = map[string]Workload{}

// Register adds a workload to the registry; duplicate names and
// malformed registrations panic at init time.
func Register(w Workload) {
	if w.Name == "" || w.Run == nil {
		panic("scenario: workload registration needs a name and a Run func")
	}
	if _, dup := workloadRegistry[w.Name]; dup {
		panic("scenario: duplicate workload " + w.Name)
	}
	if len(w.Ops) == 0 {
		panic("scenario: workload " + w.Name + " registers no ops")
	}
	for _, p := range w.Params {
		switch p.Kind {
		case KindInt, KindFloat, KindBool, KindString:
		default:
			panic(fmt.Sprintf("scenario: workload %s param %s has unknown kind %q", w.Name, p.Name, p.Kind))
		}
	}
	seenSites := map[string]bool{}
	for _, site := range w.Sites {
		if site == "" || seenSites[site] {
			panic(fmt.Sprintf("scenario: workload %s has empty or duplicate site %q", w.Name, site))
		}
		seenSites[site] = true
	}
	workloadRegistry[w.Name] = w
}

// Get returns the named workload.
func Get(name string) (Workload, bool) {
	w, ok := workloadRegistry[name]
	return w, ok
}

// Workloads returns every registered workload sorted by name.
func Workloads() []Workload {
	out := make([]Workload, 0, len(workloadRegistry))
	for _, w := range workloadRegistry {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WorkloadNames returns the registered workload names, sorted.
func WorkloadNames() []string {
	names := make([]string, 0, len(workloadRegistry))
	for n := range workloadRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (w Workload) paramDef(name string) (ParamDef, bool) {
	for _, p := range w.Params {
		if p.Name == name {
			return p, true
		}
	}
	return ParamDef{}, false
}

func (w Workload) paramNames() []string {
	names := make([]string, len(w.Params))
	for i, p := range w.Params {
		names[i] = p.Name
	}
	sort.Strings(names)
	return names
}

func (w Workload) hasOp(op string) bool {
	for _, o := range w.Ops {
		if o == op {
			return true
		}
	}
	return false
}

func (w Workload) hasMetric(m string) bool {
	for _, n := range w.MetricNames {
		if n == m {
			return true
		}
	}
	return false
}
