package main

import (
	"context"
	"fmt"
	"os"
	"sync"

	"prestores/internal/obs"
	"prestores/internal/server"
	"prestores/internal/telemetry"
)

// spanCollector assembles the -spans artifact for a remote sweep: the
// client's own spans (one root per submission, with submit and stream
// children) plus the server-side spans fetched from each finished
// job's /spans endpoint. Client and server sides share trace IDs —
// every request carries the client span as a traceparent header — so
// the merged artifact shows one tree per submission: client root,
// coordinator routing (when a cluster fronts the fleet), and the
// worker's queue-wait/run/checkpoint spans beneath it.
type spanCollector struct {
	tracer *obs.Tracer
	store  *obs.Store

	mu      sync.Mutex
	remote  []obs.Span
	dropped int
}

func newSpanCollector() *spanCollector {
	st := obs.NewStore(0, 0)
	return &spanCollector{
		tracer: &obs.Tracer{Service: "bench-client", Instance: "cli", Store: st},
		store:  st,
	}
}

// begin opens the client root span for one submission. The returned
// context carries the tracer and the span, so the job-API client
// injects it as a traceparent header on every request it makes. Nil
// collectors (no -spans) return the context untouched.
func (c *spanCollector) begin(ctx context.Context, id string) (context.Context, *obs.ActiveSpan) {
	if c == nil {
		return ctx, nil
	}
	ctx = obs.ContextWithTracer(ctx, c.tracer)
	return c.tracer.Start(ctx, "client", obs.KV("experiment", id))
}

// fetch pulls the server-side span timeline for a finished job and
// merges its raw spans into the artifact. Best-effort: a daemon
// without the endpoint or an unreachable shard degrades the artifact
// to the client's side of the story, never the sweep.
func (c *spanCollector) fetch(ctx context.Context, client *server.Client, base, id string) {
	if c == nil || id == "" {
		return
	}
	spans, dropped, err := client.Spans(ctx, base, id)
	if err != nil {
		return
	}
	c.mu.Lock()
	c.remote = append(c.remote, spans...)
	c.dropped += dropped
	c.mu.Unlock()
}

// write flushes the merged artifact as Chrome trace-event JSON.
func (c *spanCollector) write(path string) error {
	spans, dropped := c.store.All()
	c.mu.Lock()
	spans = append(spans, c.remote...)
	dropped += c.dropped
	c.mu.Unlock()

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = telemetry.WriteSpanTimeline(f, spans, dropped)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "prestore-bench: wrote %d spans (%d dropped) to %s\n",
		len(spans), dropped, path)
	return nil
}
