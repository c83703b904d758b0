package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"

	"prestores/internal/autotune"
	"prestores/internal/bench"
	"prestores/internal/scenario"
)

// evalSpec is the POST /v1/eval body: a single-point scenario spec
// (no sweep axes, exactly one op) evaluated to raw metrics instead of
// a rendered table. This is the autotuner's distributed measurement
// primitive — the cluster coordinator routes candidate plans here.
type evalSpec struct {
	Spec  json.RawMessage `json:"spec"`
	Quick bool            `json:"quick"`
}

func (s *Server) handleSubmitEval(w http.ResponseWriter, r *http.Request) {
	var body evalSpec
	if !decodeBody(w, r, &body) {
		return
	}
	if len(body.Spec) == 0 {
		WriteError(w, http.StatusBadRequest, "spec: required (a single-point scenario spec object)")
		return
	}
	sp, err := scenario.Decode(body.Spec)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "invalid scenario spec: %v", err)
		return
	}
	if err := sp.CheckSinglePoint(); err != nil {
		WriteError(w, http.StatusBadRequest, "invalid eval spec: %v", err)
		return
	}
	canon, err := sp.Canonical()
	if err != nil {
		WriteError(w, http.StatusBadRequest, "invalid scenario spec: %v", err)
		return
	}
	key := evalSpec{Spec: canon, Quick: body.Quick}
	s.accept(w, r, "eval", key, s.evalRun(sp, body.Quick))
}

// evalRun builds the run function for an eval job. The result's Output
// is exactly the metrics map as canonical JSON (sorted keys) plus a
// newline — machine-consumable, byte-stable, cache-friendly.
func (s *Server) evalRun(sp scenario.Spec, quick bool) func(context.Context, *job) bench.Result {
	name := sp.Workload.Name
	return s.guarded("eval/"+name, "single-point evaluation of "+name,
		func(ctx context.Context, _ *job, out io.Writer) error {
			m, err := sp.EvalPoint(ctx, quick)
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

func (s *Server) handleSubmitAutotune(w http.ResponseWriter, r *http.Request) {
	var body autotuneSpec
	if !decodeBody(w, r, &body) {
		return
	}
	if len(body.Spec) == 0 {
		WriteError(w, http.StatusBadRequest, "spec: required (a single-point scenario spec object; the search varies policy.window and policy.table)")
		return
	}
	sp, err := scenario.Decode(body.Spec)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "invalid scenario spec: %v", err)
		return
	}
	par, err := autotune.Normalize(&sp, body.Params)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "invalid autotune request: %v", err)
		return
	}
	canon, err := sp.Canonical()
	if err != nil {
		WriteError(w, http.StatusBadRequest, "invalid scenario spec: %v", err)
		return
	}
	keyPar := par
	keyPar.Parallel = 0
	key := autotuneKey{Spec: canon, Params: keyPar}
	s.accept(w, r, "autotune", key, s.autotuneRun(sp, par))
}

// autotuneRun builds the run function for an autotuning search job.
// Each NDJSON progress event the engine emits reaches the job's
// progress log (and any attached stream) as it is written. The full
// trajectory and the winner summary become job artifacts.
func (s *Server) autotuneRun(sp scenario.Spec, par autotune.Params) func(context.Context, *job) bench.Result {
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
