package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"prestores/internal/bench"
	"prestores/internal/obs"
	"prestores/internal/server"
)

// newClient builds the job-API client a sweep uses: unary calls time
// out after 30 s — a hung daemon must fail a submit or cancel, not hang
// the sweep forever — while streams live as long as their job. The
// backoff paces 429 retries and stream reconnects.
func newClient() *server.Client {
	return server.NewClient(30*time.Second, nil, server.Backoff{Base: 100 * time.Millisecond, Cap: 10 * time.Second})
}

// handle tracks one submitted experiment: the job ID to follow, or the
// already-final result when the submit was answered from the cache.
// ctx carries the submission's client span (when -spans is on) so
// stream reconnects keep propagating the same trace; root is that
// span, closed when the job's output has been fully collected.
type handle struct {
	id   string
	res  *bench.Result
	ctx  context.Context
	root *obs.ActiveSpan
}

// runRemote executes the sweep on a prestored daemon (or a cluster
// coordinator fronting a fleet of them). All experiments are submitted
// up front — the daemon runs them on its worker pool and answers
// repeats from its result cache — then outputs are printed in input
// order, streaming the job whose turn it is. The bytes written to w
// are identical to a local bench.Run over the same experiments.
func runRemote(ctx context.Context, w io.Writer, base string, exps []bench.Experiment, quick bool, spans *spanCollector) ([]bench.Result, error) {
	base = strings.TrimRight(base, "/")
	c := newClient()
	results := make([]bench.Result, 0, len(exps))

	handles := make([]handle, len(exps))
	for i, e := range exps {
		sctx, root := spans.begin(ctx, e.ID)
		subCtx, sub := obs.Start(sctx, "submit")
		st, err := submitRemote(subCtx, c, base, e.ID, quick)
		sub.End()
		if err != nil {
			root.End()
			cancelRemote(c, base, handles)
			return results, fmt.Errorf("submitting %s: %w", e.ID, err)
		}
		if st.Cached {
			root.SetAttr("cached", "true")
			root.End()
			handles[i] = handle{res: st.Result}
		} else {
			handles[i] = handle{id: st.ID, ctx: sctx, root: root}
		}
	}

	for i, h := range handles {
		res := h.res
		if res == nil {
			strCtx, str := obs.Start(h.ctx, "stream", obs.KV("job", h.id))
			st, err := c.Follow(strCtx, base, h.id, w)
			str.End()
			h.root.End()
			if err != nil {
				cancelRemote(c, base, handles[i:])
				return results, fmt.Errorf("streaming %s (%s): %w", exps[i].ID, h.id, err)
			}
			res = st.Result
			// The job is terminal: its server-side spans are complete
			// and safe to merge into the artifact.
			spans.fetch(ctx, c, base, h.id)
			// The stream already carried the output bytes; only the
			// failure trailer is local (it matches bench.Run's).
		} else if _, err := io.WriteString(w, res.Output); err != nil {
			cancelRemote(c, base, handles[i:])
			return results, err
		}
		if res.Failed() {
			fmt.Fprintf(w, "!!! %s failed: %s\n", res.ID, res.Err)
		}
		results = append(results, *res)
	}
	return results, nil
}

// submitRemote posts one experiment; the client retries while the
// daemon's queue is full (429), since queued jobs drain as the sweep
// progresses.
func submitRemote(ctx context.Context, c *server.Client, base, id string, quick bool) (*server.JobStatus, error) {
	body, _ := json.Marshal(map[string]any{"id": id, "quick": quick})
	var st server.JobStatus
	return &st, c.Submit(ctx, base+"/v1/experiments", body, &st)
}

// runJob submits body to the daemon's submit path and writes the job's
// output to w — streamed as it is produced, or the cached result's —
// returning the job handle and its final result. A job that cannot be
// followed to the end is cancelled.
func runJob(ctx context.Context, w io.Writer, base, path string, body []byte) (*server.JobStatus, *bench.Result, error) {
	c := newClient()
	var st server.JobStatus
	if err := c.Submit(ctx, base+path, body, &st); err != nil {
		return nil, nil, err
	}
	if st.Result != nil {
		_, err := io.WriteString(w, st.Result.Output)
		return &st, st.Result, err
	}
	final, err := c.Follow(ctx, base, st.ID, w)
	if err != nil {
		cancelRemote(c, base, []handle{{id: st.ID}})
		return &st, nil, err
	}
	return &st, final.Result, nil
}

// cancelRemote best-effort cancels jobs the client will no longer
// collect, so an aborted sweep does not leave the daemon simulating
// for nobody. Detached jobs need the explicit DELETE. The DELETEs run
// concurrently, each under its own short deadline: aborting a wide
// sweep must take one round-trip, not one per outstanding job.
func cancelRemote(c *server.Client, base string, handles []handle) {
	var wg sync.WaitGroup
	for _, h := range handles {
		if h.id == "" {
			continue
		}
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			c.Cancel(ctx, base, id)
		}(h.id)
	}
	wg.Wait()
}
