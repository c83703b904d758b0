package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"prestores/internal/scenario"
	"prestores/internal/server"
	"prestores/internal/telemetry"
)

// clusterEvaluator is the autotune measurement backend the coordinator
// injects into its embedded autotune host: every candidate evaluation
// and telemetry probe is submitted and followed through the same
// submit/follow path the coordinator's HTTP handlers use, so it
// inherits consistent-hash routing, the shards' distributed result
// cache, shard-loss requeues, backoff and trace propagation. Identical
// candidates — the hill climb revisits plans across restarts, and
// concurrent searches overlap — always land on the shard already
// holding the cached metrics.
type clusterEvaluator struct {
	c *Coordinator
}

// Eval measures one candidate plan as an eval job. The eval job's
// output is the metrics map as canonical JSON.
func (e clusterEvaluator) Eval(ctx context.Context, sp scenario.Spec, quick bool) (scenario.Metrics, error) {
	_, st, err := e.await(ctx, "eval", sp, quick)
	if err != nil {
		return nil, err
	}
	var m scenario.Metrics
	if err := json.Unmarshal([]byte(st.Result.Output), &m); err != nil {
		return nil, fmt.Errorf("cluster eval %s: bad metrics payload: %v", st.ID, err)
	}
	return m, nil
}

// Probe runs the telemetry probe as a regular scenario job (the
// probe spec carries its telemetry block) and decodes the shard's
// linereport artifact. The shard caps the artifact at the same line
// count Local.Probe uses, so both backends seed identically.
func (e clusterEvaluator) Probe(ctx context.Context, sp scenario.Spec, quick bool) (*telemetry.LineReport, error) {
	j, st, err := e.await(ctx, "scenario", sp, quick)
	if err != nil {
		return nil, err
	}
	_, _, sr, err := e.c.jobCall(ctx, j, "GET", "/linereport")
	if err != nil {
		return nil, fmt.Errorf("cluster probe %s: linereport fetch: %w", st.ID, err)
	}
	if sr.Code != http.StatusOK {
		return nil, fmt.Errorf("cluster probe %s: linereport fetch returned %d: %s",
			st.ID, sr.Code, bytes.TrimSpace(sr.Body))
	}
	return telemetry.DecodeLineReport(sr.Body)
}

// await submits a spec as a job of the given kind and follows it to its
// terminal status, which it returns with the routed job.
func (e clusterEvaluator) await(ctx context.Context, kind string, sp scenario.Spec, quick bool) (*cjob, *server.JobStatus, error) {
	canon, err := sp.Canonical()
	if err != nil {
		return nil, nil, err
	}
	body, err := json.Marshal(struct {
		Spec  json.RawMessage `json:"spec"`
		Quick bool            `json:"quick,omitempty"`
	}{Spec: canon, Quick: quick})
	if err != nil {
		return nil, nil, err
	}
	j, sr, err := e.c.submit(ctx, kind, body)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster %s submit: %w", kind, err)
	}
	if j == nil {
		return nil, nil, fmt.Errorf("cluster %s submit returned %d: %s", kind, sr.Code, bytes.TrimSpace(sr.Body))
	}
	e.c.follow(ctx, j, 0, func(server.StreamEvent) error { return nil })
	_, _, final := j.placement()
	if final == nil { // follow ends short of a terminal status only when ctx does
		return nil, nil, ctx.Err()
	}
	if final.State != "done" || final.Result == nil {
		msg := final.Error
		if msg == "" && final.Result != nil {
			msg = final.Result.Err
		}
		return nil, nil, fmt.Errorf("cluster job %s %s: %s", final.ID, final.State, msg)
	}
	return j, final, nil
}
