package autotune

import (
	"fmt"

	"prestores/internal/scenario"
	"prestores/internal/sim"
)

// Search limits. DefaultBudget is generous enough for every registered
// workload's plan space (sites×ops neighbors per generation plus
// restarts); MaxBudget is the daemon's guard against hostile requests.
const (
	DefaultBudget   = 32
	MaxBudget       = 512
	DefaultRestarts = 2
	MaxRestarts     = 16
)

// Params configures one autotuning search. The zero value is usable:
// Normalize fills defaults from the base spec's workload.
type Params struct {
	// Budget caps the number of candidate plan evaluations, the
	// recorded baseline included (a separate probe of it is not
	// counted). 0 means DefaultBudget.
	Budget int `json:"budget,omitempty"`
	// Seed seeds the search's restart RNG. The same (spec, params)
	// reproduces the same trajectory byte for byte.
	Seed uint64 `json:"seed,omitempty"`
	// Objective names the workload metric to optimize. Empty defaults to
	// "elapsed" when the workload reports it.
	Objective string `json:"objective,omitempty"`
	// Maximize flips the objective's direction (default: minimize).
	Maximize bool `json:"maximize,omitempty"`
	// Windows lists candidate placement windows to search in addition to
	// the base spec's own (policy.window, or the workload default when
	// empty). Empty keeps the window fixed and searches site ops only.
	Windows []string `json:"windows,omitempty"`
	// Restarts bounds the seeded random restarts taken after the climb
	// reaches a local optimum. Negative disables restarts; 0 means
	// DefaultRestarts.
	Restarts int `json:"restarts,omitempty"`
	// Parallel bounds concurrent candidate evaluations (0 = serial).
	// It never affects the trajectory, only wall time.
	Parallel int `json:"parallel,omitempty"`
	// Quick applies the spec's run.quick parameter overrides to every
	// candidate run, like the grid runner's quick mode.
	Quick bool `json:"quick,omitempty"`
}

// machineWindows resolves the window names of the machine a single-point
// spec runs on (preset or inline config — CheckSinglePoint has already
// ruled out a machine axis).
func machineWindows(s *scenario.Spec) (machine string, windows []string) {
	var cfg sim.Config
	if s.Machine.Config != nil {
		cfg = *s.Machine.Config
	} else {
		cfg, _ = sim.PresetConfig(s.Machine.Preset)
	}
	for _, w := range cfg.Windows {
		windows = append(windows, w.Name)
	}
	return cfg.Name, windows
}

// Normalize validates the base spec and search parameters together and
// returns the parameters with defaults applied. The daemon calls this
// before accepting a job (its errors become 400s) and keys its result
// cache on the normalized form; Run calls it again, so both agree.
func Normalize(base *scenario.Spec, par Params) (Params, error) {
	if err := base.Validate(); err != nil {
		return Params{}, err
	}
	if err := base.CheckSinglePoint(); err != nil {
		return Params{}, err
	}
	w, _ := scenario.Get(base.Workload.Name)
	if len(w.Sites) == 0 {
		return Params{}, fmt.Errorf("workload.name: workload %s declares no pre-store sites to tune", w.Name)
	}
	if !containsStr(w.Ops, "none") {
		return Params{}, fmt.Errorf("workload.name: workload %s does not support op %q (needed for the baseline plan)", w.Name, "none")
	}

	if par.Budget == 0 {
		par.Budget = DefaultBudget
	}
	if par.Budget < 0 {
		return Params{}, fmt.Errorf("budget: must be non-negative (got %d)", par.Budget)
	}
	if par.Budget > MaxBudget {
		return Params{}, fmt.Errorf("budget: %d exceeds the limit of %d", par.Budget, MaxBudget)
	}

	if par.Objective == "" {
		par.Objective = "elapsed"
	}
	if !containsStr(w.MetricNames, par.Objective) {
		return Params{}, fmt.Errorf("objective: unknown metric %q (workload %s reports %v)", par.Objective, w.Name, w.MetricNames)
	}

	machine, windows := machineWindows(base)
	for i, win := range par.Windows {
		if !containsStr(windows, win) {
			return Params{}, fmt.Errorf("windows[%d]: no such window %q (machine %s has %v)", i, win, machine, windows)
		}
	}

	switch {
	case par.Restarts == 0:
		par.Restarts = DefaultRestarts
	case par.Restarts < 0:
		par.Restarts = 0
	}
	if par.Restarts > MaxRestarts {
		return Params{}, fmt.Errorf("restarts: %d exceeds the limit of %d", par.Restarts, MaxRestarts)
	}

	if par.Parallel < 0 {
		return Params{}, fmt.Errorf("parallel: must be non-negative (got %d)", par.Parallel)
	}
	if par.Parallel == 0 {
		par.Parallel = 1
	}
	return par, nil
}

func containsStr(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
