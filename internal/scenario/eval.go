package scenario

import (
	"context"
	"fmt"

	"prestores/internal/sim"
)

// CheckSinglePoint reports whether the spec evaluates exactly one grid
// point — no sweep axes, exactly one op — which is what EvalPoint and
// the autotuner's candidate runs require. The returned error names the
// offending field, matching Validate's style.
func (s *Spec) CheckSinglePoint() error {
	if len(s.Policy.Axes) != 0 {
		return fmt.Errorf("policy.axes: single-point evaluation requires no sweep axes (got %d)", len(s.Policy.Axes))
	}
	if len(s.Policy.Ops) != 1 {
		return fmt.Errorf("policy.ops: single-point evaluation requires exactly one op (got %d)", len(s.Policy.Ops))
	}
	return nil
}

// EvalPoint runs a single-point spec and returns its raw metrics
// instead of a rendered table. This is the autotuner's measurement
// primitive: with a checkpoint view on the context every candidate plan
// — and every spec sharing the warm state, whatever its seed or
// measured-phase parameters — forks from the same memoized post-warmup
// state (unless run.cold_start opts out). Metrics are deterministic for
// a fixed spec, warm or cold — the phased-run byte-identity guarantee
// covers them.
func (s *Spec) EvalPoint(ctx context.Context, quick bool) (Metrics, error) {
	if err := s.CheckSinglePoint(); err != nil {
		return nil, err
	}
	wl, ok := Get(s.Workload.Name)
	if !ok {
		return nil, fmt.Errorf("workload.name: unknown workload %q (one of %v)", s.Workload.Name, WorkloadNames())
	}
	cfg, err := s.machineConfig(s.Machine.Preset, nil)
	if err != nil {
		return nil, err
	}
	return runOp(ctx, wl, sim.NewMachine(cfg), s.Policy.Ops[0], s.baseParams(quick), s.forks(ctx, wl))
}

// WithPlan returns a copy of the spec carrying a different pre-store
// plan: the placement window and the per-site op table. The table map
// is copied; the rest of the spec is shared structurally, so callers
// must treat the result as immutable (the autotuner only re-encodes
// it). An empty window keeps the workload's own placement default.
func (s Spec) WithPlan(window string, table map[string]string) Spec {
	out := s
	out.Policy.Window = window
	if len(table) == 0 {
		out.Policy.Table = nil
	} else {
		t := make(map[string]string, len(table))
		for k, v := range table {
			t[k] = v
		}
		out.Policy.Table = t
	}
	return out
}
