package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"prestores/internal/scenario"
	"prestores/internal/server"
	"prestores/internal/telemetry"
)

// clusterEvaluator is the autotune measurement backend the coordinator
// injects into its embedded autotune host: every candidate evaluation
// and telemetry probe becomes an in-process round trip against the
// coordinator's own HTTP surface, so it inherits consistent-hash
// routing, the shards' distributed result cache, shard-loss requeues
// and backoff for free. Identical candidates — the hill climb revisits
// plans across restarts, and concurrent searches overlap — always land
// on the shard already holding the cached metrics.
type clusterEvaluator struct {
	c *Coordinator
}

// Eval measures one candidate plan: POST /v1/eval on the cluster
// surface, streamed so the terminal status arrives without polling.
// The eval job's output is the metrics map as canonical JSON.
func (e clusterEvaluator) Eval(ctx context.Context, sp scenario.Spec, quick bool) (scenario.Metrics, error) {
	st, err := e.await(ctx, "/v1/eval?stream=1", sp, quick)
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
	st, err := e.await(ctx, "/v1/scenarios?stream=1", sp, quick)
	if err != nil {
		return nil, err
	}
	rec := e.roundTrip(ctx, "GET", "/v1/jobs/"+st.ID+"/linereport", nil)
	if rec.code != http.StatusOK {
		return nil, fmt.Errorf("cluster probe %s: linereport fetch returned %d: %s",
			st.ID, rec.code, bytes.TrimSpace(rec.body.Bytes()))
	}
	return telemetry.DecodeLineReport(rec.body.Bytes())
}

// await submits a spec to a streaming cluster endpoint and blocks until
// its terminal stream event, returning the finished job status.
func (e clusterEvaluator) await(ctx context.Context, path string, sp scenario.Spec, quick bool) (*server.JobStatus, error) {
	canon, err := sp.Canonical()
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(struct {
		Spec  json.RawMessage `json:"spec"`
		Quick bool            `json:"quick,omitempty"`
	}{Spec: canon, Quick: quick})
	if err != nil {
		return nil, err
	}
	rec := e.roundTrip(ctx, "POST", path, body)
	if rec.code != http.StatusOK {
		return nil, fmt.Errorf("cluster submit %s returned %d: %s",
			path, rec.code, bytes.TrimSpace(rec.body.Bytes()))
	}

	var final *server.JobStatus
	sc := bufio.NewScanner(&rec.body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var ev streamEvent
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue
		}
		if ev.Event == "done" && ev.Job != nil {
			final = ev.Job
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if final == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("cluster submit %s: stream ended without a done event", path)
	}
	if final.State != "done" || final.Result == nil {
		msg := final.Error
		if msg == "" && final.Result != nil {
			msg = final.Result.Err
		}
		return nil, fmt.Errorf("cluster job %s %s: %s", final.ID, final.State, msg)
	}
	return final, nil
}

// roundTrip serves one request against the coordinator's mux without a
// socket. Responses are buffered whole: streams block until the job's
// terminal event, which is exactly the rendezvous await needs.
func (e clusterEvaluator) roundTrip(ctx context.Context, method, path string, body []byte) *responseRecorder {
	var rd *strings.Reader
	if body != nil {
		rd = strings.NewReader(string(body))
	} else {
		rd = strings.NewReader("")
	}
	req, err := http.NewRequestWithContext(ctx, method, path, rd)
	if err != nil {
		rec := newRecorder()
		rec.code = http.StatusInternalServerError
		fmt.Fprintf(&rec.body, "building request: %v", err)
		return rec
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := newRecorder()
	e.c.mux.ServeHTTP(rec, req)
	return rec
}

// responseRecorder is a minimal buffering http.ResponseWriter for
// in-process round trips. Flush is a no-op — everything is delivered
// when the handler returns.
type responseRecorder struct {
	code   int
	header http.Header
	body   bytes.Buffer
}

func newRecorder() *responseRecorder {
	return &responseRecorder{code: http.StatusOK, header: http.Header{}}
}

func (r *responseRecorder) Header() http.Header         { return r.header }
func (r *responseRecorder) WriteHeader(code int)        { r.code = code }
func (r *responseRecorder) Write(b []byte) (int, error) { return r.body.Write(b) }
func (r *responseRecorder) Flush()                      {}
