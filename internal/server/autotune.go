package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"prestores/internal/autotune"
	"prestores/internal/scenario"
)

func (s *Server) prepareEval(body *specBody) (any, runFunc, error) {
	sp, canon, err := decodeSpec(body.Spec, "a single-point scenario spec object", func(sp *scenario.Spec) error {
		if err := sp.CheckSinglePoint(); err != nil {
			return fmt.Errorf("invalid eval spec: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return specBody{Spec: canon, Quick: body.Quick}, s.evalRun(sp, body.Quick), nil
}

// evalRun builds the run function for an eval job: a single-point spec
// (no sweep axes, one op) evaluated to raw metrics — the autotuner's
// distributed measurement primitive. The result's Output is exactly the
// metrics map as canonical JSON plus a newline; a telemetry block
// records the run into artifacts, as for a scenario job.
func (s *Server) evalRun(sp scenario.Spec, quick bool) runFunc {
	name := sp.Workload.Name
	return s.guarded("eval/"+name, "single-point evaluation of "+name,
		func(ctx context.Context, j *job, out io.Writer) error {
			var m scenario.Metrics
			_, err := recorded(ctx, j, sp.Telemetry, func(ctx context.Context) (err error) {
				m, err = sp.EvalPoint(ctx, quick)
				return err
			})
			if err != nil {
				return err
			}
			b, err := json.Marshal(m)
			if err != nil {
				return err
			}
			_, err = out.Write(append(b, '\n'))
			return err
		})
}

// autotuneSpec is the POST /v1/autotune body: the base single-point
// spec plus the search parameters (inlined; see autotune.Params).
type autotuneSpec struct {
	Spec json.RawMessage `json:"spec"`
	autotune.Params
}

// autotuneKey is the cache-key form: canonical spec bytes and the
// normalized parameters with Parallel zeroed — the search result is
// independent of evaluation concurrency, so requests differing only in
// parallelism share one cache entry.
type autotuneKey struct {
	Spec   json.RawMessage `json:"spec"`
	Params autotune.Params `json:"params"`
}

func (s *Server) prepareAutotune(body *autotuneSpec) (any, runFunc, error) {
	var par autotune.Params
	sp, canon, err := decodeSpec(body.Spec,
		"a single-point scenario spec object; the search varies policy.window and policy.table",
		func(sp *scenario.Spec) (err error) {
			if par, err = autotune.Normalize(sp, body.Params); err != nil {
				return fmt.Errorf("invalid autotune request: %w", err)
			}
			return nil
		})
	if err != nil {
		return nil, nil, err
	}
	keyPar := par
	keyPar.Parallel = 0
	return autotuneKey{Spec: canon, Params: keyPar}, s.autotuneRun(sp, par), nil
}

// autotuneRun builds the run function for an autotuning search job.
// Each NDJSON progress event the engine emits reaches the job's
// progress log (and any attached stream) as it is written. The full
// trajectory and the winner summary become job artifacts.
func (s *Server) autotuneRun(sp scenario.Spec, par autotune.Params) runFunc {
	name := sp.Workload.Name
	return s.guarded("autotune/"+name, "autotuning search over "+name,
		func(ctx context.Context, j *job, out io.Writer) error {
			res, err := autotune.Run(ctx, sp, par, s.evaluator(), out)
			if err != nil {
				return err
			}
			traj, err := res.Trajectory.JSON()
			if err != nil {
				return err
			}
			j.setArtifact("trajectory", traj)
			winner, err := json.MarshalIndent(res.Trajectory.Winner, "", "  ")
			if err != nil {
				return err
			}
			j.setArtifact("winner", append(winner, '\n'))
			s.m.autotuneSearches.Add(1)
			s.m.autotuneEvals.Add(int64(res.Trajectory.Evals))
			if res.Trajectory.Converged {
				s.m.autotuneConverged.Add(1)
			}
			return nil
		})
}

// evaluator returns the measurement backend autotune jobs use: the
// configured hook (the cluster coordinator injects a shard fan-out
// evaluator) or in-process evaluation.
func (s *Server) evaluator() autotune.Evaluator {
	if s.cfg.AutotuneEvaluator != nil {
		return s.cfg.AutotuneEvaluator
	}
	return autotune.Local{}
}
