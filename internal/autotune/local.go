package autotune

import (
	"context"

	"prestores/internal/scenario"
	"prestores/internal/telemetry"
)

// Evaluator measures candidate plans for the search engine. The local
// implementation runs specs in process; the cluster coordinator
// substitutes one that fans candidates out across worker shards. Both
// must be deterministic and safe for concurrent calls.
type Evaluator interface {
	// Eval runs a single-point spec and returns its metrics.
	Eval(ctx context.Context, sp scenario.Spec, quick bool) (scenario.Metrics, error)
	// Probe runs a single-point spec (the search's baseline plan) under
	// line-report telemetry and returns the report the seeding rules
	// consume. The report must not depend on the checkpoint cache.
	Probe(ctx context.Context, sp scenario.Spec, quick bool) (*telemetry.LineReport, error)
}

// Local evaluates candidates in process via scenario.EvalPoint. A
// checkpoint view on the context makes every candidate and the probe
// fork from the shared warm state; without one each loads from scratch.
type Local struct{}

func (Local) Eval(ctx context.Context, sp scenario.Spec, quick bool) (scenario.Metrics, error) {
	return sp.EvalPoint(ctx, quick)
}

func (Local) Probe(ctx context.Context, sp scenario.Spec, quick bool) (*telemetry.LineReport, error) {
	rec := telemetry.New(telemetry.Config{LineReport: true})
	ctx = scenario.WithRecorder(ctx, rec)
	if _, err := sp.EvalPoint(ctx, quick); err != nil {
		return nil, err
	}
	return rec.LineReport(telemetry.ReportLines), nil
}
