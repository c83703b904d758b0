package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"

	"prestores/internal/autotune"
	"prestores/internal/scenario"
	"prestores/internal/server"
)

// autotuneOpts carries the -autotune flag set into the driver.
type autotuneOpts struct {
	server     string // daemon base URL; empty runs in process
	quick      bool
	parallel   int
	seed       int64 // < 0 keeps the engine default
	budget     int
	objective  string
	trajectory string // trajectory JSON output path; empty skips it
}

func (o autotuneOpts) params() autotune.Params {
	par := autotune.Params{
		Budget:    o.budget,
		Objective: o.objective,
		Parallel:  o.parallel,
		Quick:     o.quick,
	}
	if o.seed >= 0 {
		par.Seed = uint64(o.seed)
	}
	return par
}

// runAutotuneFile searches for the best pre-store plan over the
// scenario spec in path. The engine's NDJSON progress stream goes to
// stdout as it happens (locally and remotely the same bytes — the
// reproducibility guarantee the tests pin); the human summary and the
// trajectory file note go to stderr.
func runAutotuneFile(ctx context.Context, path string, o autotuneOpts) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sp, err := scenario.Decode(data)
	if err != nil {
		return fmt.Errorf("%s: invalid scenario spec: %v", path, err)
	}
	if o.server != "" {
		return runAutotuneRemote(ctx, sp, o)
	}
	res, err := autotune.Run(ctx, sp, o.params(), autotune.Local{}, os.Stdout)
	if err != nil {
		return err
	}
	return finishAutotune(res.Trajectory, o.trajectory)
}

// runAutotuneRemote submits the search to a prestored daemon (or a
// cluster coordinator, which fans candidate evaluations across its
// shards), streams per-iteration progress, then pulls the trajectory
// artifact.
func runAutotuneRemote(ctx context.Context, sp scenario.Spec, o autotuneOpts) error {
	canon, err := sp.Canonical()
	if err != nil {
		return err
	}
	body, err := json.Marshal(struct {
		Spec json.RawMessage `json:"spec"`
		autotune.Params
	}{canon, o.params()})
	if err != nil {
		return err
	}
	base := strings.TrimRight(o.server, "/")
	st, res, err := runJob(ctx, os.Stdout, base, "/v1/autotune", body)
	if err != nil {
		return err
	}
	if res.Failed() {
		return fmt.Errorf("autotune failed: %s", res.Err)
	}
	resp, err := newClient().Do(ctx, "GET", base+"/v1/jobs/"+st.ID+"/trajectory", "", nil)
	if err != nil {
		return err
	}
	if resp.Code != http.StatusOK {
		return fmt.Errorf("fetching the trajectory of job %s: %w", st.ID, &server.StatusError{Code: resp.Code, Body: resp.Body})
	}
	traj, err := autotune.DecodeTrajectory(resp.Body)
	if err != nil {
		return fmt.Errorf("daemon returned a bad trajectory artifact: %v", err)
	}
	return finishAutotune(traj, o.trajectory)
}

// finishAutotune writes the trajectory file when asked and prints the
// winner summary trailer.
func finishAutotune(traj *autotune.Trajectory, path string) error {
	if path != "" {
		data, err := traj.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
		fmt.Fprintf(os.Stderr, "prestore-bench: wrote trajectory (%d iterations) to %s\n",
			len(traj.Iterations), path)
	}
	plan, err := json.Marshal(traj.Winner.Plan)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"prestore-bench: autotune %s: winner at iteration %d with %s=%g, plan %s (%d evals, %d cache hits, converged=%v)\n",
		traj.Workload, traj.Winner.Iter, traj.Objective, traj.Winner.Objective,
		plan, traj.Evals, traj.CacheHits, traj.Converged)
	return nil
}
