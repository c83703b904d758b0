// Package server exposes the whole prestores stack — paper
// experiments, DirtBuster analyses and trace analyses — as a
// simulation-as-a-service HTTP/JSON daemon (cmd/prestored). It is
// stdlib-only: net/http for transport, a bounded job queue feeding a
// worker pool built on the bench runner's guarded single-experiment
// harness, a content-addressed result cache with in-flight request
// coalescing, NDJSON progress streaming, Prometheus-text metrics, and
// graceful shutdown that drains running jobs.
//
// API (all JSON unless noted):
//
//	POST   /v1/experiments        {"id":"fig3","quick":true}    submit an experiment job
//	POST   /v1/dirtbuster         {"workload":"clht","quick":true}
//	POST   /v1/trace              {"workload":"clht","mode":"dirtbuster|report|pmcheck"}
//	POST   /v1/scenarios          {"spec":{...},"quick":true}   run a declarative scenario spec
//	POST   /v1/traces             encoded trace body (binary)   store a recording; ?resume=1 opens a resumable upload
//	PUT    /v1/traces/uploads/{id}?offset=N                     append one part (409 carries the offset to resume from)
//	POST   /v1/traces/uploads/{id}/commit                       validate and store the assembled upload
//	GET    /v1/traces             stored-trace listing; GET/DELETE /v1/traces/{address} fetch/evict one
//	POST   /v1/analyses           {"trace":"<address>"}         chunked DirtBuster analysis of a stored trace
//	POST   /v1/analyses/chunks    framed chunk (binary)         one synchronous per-chunk map step (cluster fan-out primitive)
//	       ?stream=1 on any submit streams NDJSON progress instead of returning a job handle
//	GET    /v1/experiments        registry listing
//	GET    /v1/registry           scenario building blocks (machines, devices, workloads, stores, formats)
//	                              and the DirtBuster workloads (dirtbuster_workloads)
//	GET    /v1/jobs/{id}          job status (+ result when finished)
//	GET    /v1/jobs/{id}/stream   NDJSON progress stream (attach/replay; ?offset=N resumes at byte N)
//	DELETE /v1/jobs/{id}          cooperative cancellation
//	GET    /metrics               Prometheus text format
//	GET    /healthz               liveness ("ok", or 503 while draining)
//
// Submits return 202 with a job handle (or 200 with the result on a
// cache hit), 429 when the queue is full, and 503 while shutting down.
// Routes declares the whole table once: the daemon's mux and a cluster
// coordinator's are both built from it, and Client is the one client
// of the API.
//
// /v1/dirtbuster runs the live sampling pipeline on a bundled workload.
// /v1/trace records a bundled workload into an in-memory chunked trace
// and analyzes its chunks exactly as an uploaded trace would be: the
// dirtbuster mode through the /v1/analyses pipeline, report as that
// pipeline's first pass, pmcheck streaming one chunk at a time.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"prestores/internal/autotune"
	"prestores/internal/bench"
	"prestores/internal/checkpoint"
	"prestores/internal/dirtbuster"
	"prestores/internal/obs"
	"prestores/internal/telemetry"
)

// Config tunes the daemon.
type Config struct {
	// Workers is the job worker-pool size; <= 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs;
	// <= 0 means 64. A full queue rejects submits with 429.
	QueueDepth int
	// JobTimeout bounds each job's wall-clock time; 0 disables.
	JobTimeout time.Duration
	// Lookup resolves experiment IDs; nil means bench.Lookup.
	// Tests inject synthetic experiments here.
	Lookup func(id string) (bench.Experiment, bool)
	// Workloads lists the DirtBuster-analyzable workloads; nil means
	// bench.Table2Workloads.
	Workloads func(quick bool) []dirtbuster.Workload
	// CheckpointBytes bounds the in-memory warm-state checkpoint cache
	// shared by all jobs; 0 means checkpoint.DefaultMaxBytes, negative
	// disables checkpointing entirely (every sweep loads cold).
	CheckpointBytes int64
	// CheckpointDir enables the checkpoint disk tier: warm states
	// survive LRU pressure and daemon restarts. Empty keeps them
	// memory-only.
	CheckpointDir string
	// Logger receives structured logs (job lifecycle with job IDs);
	// nil discards them.
	Logger *slog.Logger
	// AutotuneEvaluator overrides how autotune jobs measure candidate
	// plans; nil means in-process evaluation (autotune.Local). The
	// cluster coordinator injects an evaluator that fans candidates out
	// across its worker shards.
	AutotuneEvaluator autotune.Evaluator
	// TraceQuotaBytes bounds the content-addressed trace store (stored
	// traces plus open upload buffers); <= 0 means DefaultTraceQuota.
	TraceQuotaBytes int64
	// ChunkAnalyzer overrides how chunked trace analyses (POST
	// /v1/analyses) compute per-chunk results; nil means in-process.
	// The cluster coordinator injects an analyzer that fans chunks out
	// across its worker shards.
	ChunkAnalyzer ChunkAnalyzer
	// Instance labels this process's spans and trace artifacts,
	// typically the listen address. Empty is fine for tests.
	Instance string
	// Flight is the always-on flight recorder; nil means a fresh
	// default-sized one. cmd/prestored passes its own so the signal
	// handler can dump it on forced shutdown.
	Flight *obs.FlightRecorder
}

// maxFinished bounds how many finished jobs (and cached results) are
// retained, oldest evicted first.
const maxFinished = 1024

// version namespaces the result cache: results computed by one build
// must not be served for another. It is obs.Version, which the binaries
// also report via -version and the build_info gauge — one notion of
// "what build is this" across the fleet.
var version = obs.Version()

var (
	errQueueFull    = errors.New("job queue full")
	errShuttingDown = errors.New("server shutting down")
)

// Server is the prestored daemon: scheduler, cache and HTTP surface.
// Create with New, serve s.Handler(), stop with Shutdown.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	queue chan *job
	wg    sync.WaitGroup // worker goroutines

	mu       sync.Mutex
	closed   bool
	seq      uint64
	jobs     map[string]*job          // by job ID, bounded by maxFinished
	finished []string                 // finished job IDs, eviction order
	inflight map[string]*job          // cache key → queued/running job (coalescing)
	cache    map[string]*bench.Result // cache key → successful result
	cacheIDs map[string]string        // cache key → job ID that produced it

	log    *slog.Logger
	m      metrics
	ck     *checkpoint.Store // shared warm-state cache; nil when disabled
	traces *traceStore       // uploaded recordings, content-addressed
	tracer *obs.Tracer       // span recording for this process
	spans  *obs.Store        // backing of GET /v1/jobs/{id}/spans
	flight *obs.FlightRecorder
	// chunkSem bounds concurrent POST /v1/analyses/chunks work so a
	// coordinator's fan-out cannot starve this shard's job workers.
	chunkSem chan struct{}
	start    time.Time
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Lookup == nil {
		cfg.Lookup = bench.Lookup
	}
	if cfg.Workloads == nil {
		cfg.Workloads = bench.Table2Workloads
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.Flight == nil {
		cfg.Flight = obs.NewFlightRecorder(0)
	}
	s := &Server{
		log:      cfg.Logger,
		cfg:      cfg,
		queue:    make(chan *job, cfg.QueueDepth),
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
		cache:    make(map[string]*bench.Result),
		cacheIDs: make(map[string]string),
		traces:   newTraceStore(cfg.TraceQuotaBytes),
		chunkSem: make(chan struct{}, max(2, cfg.Workers)),
		spans:    obs.NewStore(0, 0),
		flight:   cfg.Flight,
		start:    time.Now(),
	}
	s.tracer = &obs.Tracer{Service: "prestored", Instance: cfg.Instance, Store: s.spans}
	if cfg.CheckpointBytes >= 0 {
		ck, err := checkpoint.NewStore(cfg.CheckpointBytes, cfg.CheckpointDir)
		if err != nil {
			// The disk tier is an optimization; fall back to memory-only
			// rather than refusing to start.
			s.log.Warn("checkpoint disk tier unavailable", "dir", cfg.CheckpointDir, "error", err)
			ck, _ = checkpoint.NewStore(cfg.CheckpointBytes, "")
		}
		ck.SetFlight(s.flight)
		s.ck = ck
	}
	s.initMetrics()
	s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the daemon: no new submits are accepted (503),
// queued and running jobs run to completion, workers exit. If ctx
// expires first, the remaining jobs are cancelled cooperatively and
// Shutdown waits for them to stop, returning ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.queue)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	// Drain deadline hit: cancel everything still alive and wait for
	// the cooperative stops.
	s.mu.Lock()
	for _, j := range s.inflight {
		j.cancel()
	}
	s.mu.Unlock()
	<-done
	return ctx.Err()
}

// worker drains the job queue. Dequeued jobs that were cancelled while
// waiting have already been finalized and are skipped.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		if !j.trySetRunning() {
			continue
		}
		wait := time.Since(j.submitted)
		s.m.queueWait.Observe(wait, j.kind)
		// The queue wait becomes a span after the fact: submit time to
		// pickup, parented to the job's root span.
		s.tracer.Record(j.sc, "queue.wait", j.submitted, time.Now(), obs.KV("kind", j.kind))
		s.flight.Record("job.start", j.id, j.sc.Trace.String(), j.kind)
		s.log.InfoContext(j.logCtx(), "job start", "job", j.id, "kind", j.kind, "queue_wait", wait)
		s.m.running.Add(1)
		// Each job gets its own view of the shared checkpoint store:
		// warm states are reused across jobs, hit/miss counts stay
		// per-job for the lifecycle log lines.
		ctx := j.ctx
		if s.ck != nil {
			j.ckpt = s.ck.View()
			ctx = checkpoint.NewContext(ctx, j.ckpt)
		}
		// The run span nests under the job root and travels in the
		// context, so deep layers (checkpoint restore, autotune eval
		// fan-out, chunk pipeline) hang their own spans off it.
		ctx = obs.ContextWithSpan(obs.ContextWithTracer(ctx, s.tracer), j.sc)
		ctx, runSpan := obs.Start(ctx, "run", obs.KV("kind", j.kind), obs.KV("job", j.id))
		start := time.Now()
		res := j.run(ctx, j)
		dur := time.Since(start)
		runSpan.End()
		s.m.running.Add(-1)
		s.m.runDur.Observe(dur, j.kind)
		s.finalize(j, res)
	}
}

// submit is the scheduling core: content-address the request, answer
// from the cache, coalesce onto an identical in-flight job, or enqueue
// a new one (429 when the queue is full). detached jobs run to
// completion even if every watcher disconnects. parent is the caller's
// span context (extracted from the request's traceparent header): the
// new job's trace continues it, so a coordinator — or the bench client
// — sees its remote work under its own trace ID.
func (s *Server) submit(kind string, spec any, detached bool, parent obs.SpanContext,
	run func(context.Context, *job) bench.Result) (JobStatus, *job, error) {
	key := cacheKey(kind, spec, version)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobStatus{}, nil, errShuttingDown
	}
	if res, ok := s.cache[key]; ok {
		s.m.cacheHits.Add(1)
		id := s.cacheIDs[key]
		s.flight.Record("cache.hit", id, parent.Trace.String(), kind)
		if parent.Valid() {
			// The caller still gets a span for the answered submit, in
			// its own trace — a cache hit is a scheduling decision worth
			// seeing on the timeline even though nothing ran.
			now := time.Now()
			s.tracer.Record(parent, "cache.hit", now, now, obs.KV("kind", kind), obs.KV("job", id))
		}
		return JobStatus{
			ID: id, Kind: kind, Key: key,
			State: stateDone.String(), Cached: true, Result: res,
		}, nil, nil
	}
	if j, ok := s.inflight[key]; ok {
		s.m.coalesced.Add(1)
		s.flight.Record("coalesced", j.id, parent.Trace.String(), kind)
		if parent.Valid() {
			now := time.Now()
			s.tracer.Record(parent, "coalesced", now, now,
				obs.KV("kind", kind), obs.KV("job", j.id), obs.KV("joined_trace", j.sc.Trace.String()))
		}
		if detached {
			j.mu.Lock()
			j.detached = true
			j.mu.Unlock()
		}
		st := j.status()
		st.Coalesced = true
		return st, j, nil
	}

	s.seq++
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id: fmt.Sprintf("job-%d", s.seq), kind: kind, key: key,
		run: run, ctx: ctx, cancel: cancel,
		out: newProgressLog(), done: make(chan struct{}),
		detached: detached, submitted: time.Now(),
		sc: s.tracer.Child(parent), parent: parent.Span,
	}
	// Snapshot before the send: once queued, a worker may run the job
	// to completion before this submit is answered, and a fresh submit
	// answers "queued".
	st := j.status()
	select {
	case s.queue <- j:
	default:
		cancel()
		s.m.rejected.Add(1)
		s.flight.Record("rejected", "", parent.Trace.String(), kind+": queue full")
		return JobStatus{}, nil, errQueueFull
	}
	s.jobs[j.id] = j
	s.inflight[key] = j
	s.m.cacheMisses.Add(1)
	s.flight.Record("job.queued", j.id, j.sc.Trace.String(), kind)
	s.log.InfoContext(j.logCtx(), "job submitted", "job", j.id, "kind", kind, "key", key)
	return st, j, nil
}

// finalize moves a job to its final state, caches successful results,
// updates metrics, evicts old finished jobs, and releases streamers.
func (s *Server) finalize(j *job, res bench.Result) {
	final := stateDone
	switch {
	case j.ctx.Err() != nil:
		final = stateCancelled
	case res.Err != "":
		final = stateFailed
	}
	s.countFinished(j.kind, final)
	j.mu.Lock()
	j.state = final
	j.result = &res
	j.mu.Unlock()

	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	if final == stateDone {
		s.cache[j.key] = &res
		s.cacheIDs[j.key] = j.id
	}
	s.finished = append(s.finished, j.id)
	for len(s.finished) > maxFinished {
		old := s.finished[0]
		s.finished = s.finished[1:]
		if oj, ok := s.jobs[old]; ok {
			delete(s.jobs, old)
			if s.cacheIDs[oj.key] == old {
				delete(s.cache, oj.key)
				delete(s.cacheIDs, oj.key)
			}
		}
	}
	s.mu.Unlock()

	// Close the job's root span: submit time to final state, covering
	// the queue wait and run spans nested under it.
	s.tracer.Add(obs.Span{
		Trace: j.sc.Trace, ID: j.sc.Span, Parent: j.parent,
		Name: "job", Start: j.submitted.UnixNano(), End: time.Now().UnixNano(),
		Attrs: []obs.Attr{
			obs.KV("kind", j.kind), obs.KV("job", j.id), obs.KV("state", final.String()),
		},
	})
	attrs := []any{"job", j.id, "kind", j.kind}
	if j.ckpt != nil {
		attrs = append(attrs, "ckpt_hits", j.ckpt.Hits(), "ckpt_misses", j.ckpt.Misses())
	}
	logCtx := j.logCtx()
	switch final {
	case stateDone:
		s.flight.Record("job.done", j.id, j.sc.Trace.String(), j.kind)
		s.log.InfoContext(logCtx, "job done", attrs...)
	case stateFailed:
		s.flight.Record("job.failed", j.id, j.sc.Trace.String(), res.Err)
		s.log.WarnContext(logCtx, "job failed", append(attrs, "error", res.Err)...)
	case stateCancelled:
		s.flight.Record("job.cancelled", j.id, j.sc.Trace.String(), j.kind)
		s.log.InfoContext(logCtx, "job cancelled", attrs...)
	}
	j.cancel() // release the context's resources
	j.out.close()
	close(j.done)
}

// countFinished counts a job reaching its final state. Callers count
// before they publish that state, so a client that sees a job finished
// always finds it on /metrics.
func (s *Server) countFinished(kind string, final jobState) {
	switch final {
	case stateDone:
		s.m.jobsDone.Add(1)
	case stateFailed:
		s.m.jobsFailed.Add(1)
	case stateCancelled:
		s.m.jobsCancelled.Add(1)
	}
	s.m.finished.Inc(kind, final.String())
}

// watch registers a streaming connection on a job.
func (s *Server) watch(j *job) {
	j.mu.Lock()
	j.watchers++
	j.mu.Unlock()
}

// unwatch drops a streaming connection. When the last watcher of a
// non-detached job disconnects before the job finishes, the job is
// cancelled: nobody is waiting for the answer, so the simulation work
// stops at its next iteration boundary. A job still in the queue is
// finalized immediately.
func (s *Server) unwatch(j *job) {
	j.mu.Lock()
	j.watchers--
	abandon := j.watchers == 0 && !j.detached &&
		(j.state == stateQueued || j.state == stateRunning)
	j.mu.Unlock()
	if abandon {
		s.cancelJob(j)
	}
}

// cancelJob handles DELETE and abandonment: cancel the context; a job
// still in the queue is finalized immediately (the worker skips it at
// dequeue), a running one stops cooperatively.
func (s *Server) cancelJob(j *job) {
	j.mu.Lock()
	wasQueued := j.state == stateQueued
	if wasQueued {
		s.countFinished(j.kind, stateCancelled)
		j.state = stateCancelled
	}
	j.mu.Unlock()
	j.cancel()
	if wasQueued {
		s.finalizeAbandoned(j)
	}
}

// finalizeAbandoned records the final state of a job cancelled before
// a worker picked it up. The state is already stateCancelled and
// counted (by the caller under the job lock, which is what makes the
// worker skip it), so finalize's bookkeeping runs with a synthetic
// result.
func (s *Server) finalizeAbandoned(j *job) {
	res := bench.Result{ID: j.kind, Title: "cancelled before start", Err: "cancelled: " + context.Canceled.Error()}
	j.mu.Lock()
	j.result = &res
	j.mu.Unlock()

	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.finished = append(s.finished, j.id)
	s.mu.Unlock()
	s.tracer.Add(obs.Span{
		Trace: j.sc.Trace, ID: j.sc.Span, Parent: j.parent,
		Name: "job", Start: j.submitted.UnixNano(), End: time.Now().UnixNano(),
		Attrs: []obs.Attr{
			obs.KV("kind", j.kind), obs.KV("job", j.id),
			obs.KV("state", stateCancelled.String()), obs.KV("abandoned", "queued"),
		},
	})
	s.flight.Record("job.cancelled", j.id, j.sc.Trace.String(), j.kind+": before start")
	s.log.InfoContext(j.logCtx(), "job cancelled", "job", j.id, "kind", j.kind, "queued", true)
	j.out.close()
	close(j.done)
}

// cacheKey content-addresses a request: kind, canonical spec JSON and
// build version, hashed. Identical work submitted twice — across time
// (cache) or concurrently (coalescing) — maps to the same key.
func cacheKey(kind string, spec any, version string) string {
	b, err := json.Marshal(spec)
	if err != nil {
		// Specs are plain structs; this cannot fail.
		panic("server: unmarshalable spec: " + err.Error())
	}
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write([]byte(version))
	h.Write([]byte{0})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// ---- HTTP surface ----

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	for _, rt := range s.Routes() {
		s.mux.HandleFunc(rt.Pattern, rt.Handler)
	}
}

// artifactHandler serves a job's named artifact (recorded telemetry).
// 409 while the job is still producing it, 404 when the job never
// recorded one (the submit lacked a telemetry block).
func (s *Server) artifactHandler(name string) func(http.ResponseWriter, *http.Request, *job) {
	return func(w http.ResponseWriter, r *http.Request, j *job) {
		if !j.finished() {
			WriteError(w, http.StatusConflict, "job %s is not finished; poll GET /v1/jobs/%s", j.id, j.id)
			return
		}
		data, ok := j.artifact(name)
		if !ok {
			WriteError(w, http.StatusNotFound,
				"job %s recorded no %s artifact (telemetry artifacts need a telemetry block on the submit)", j.id, name)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	}
}

// handleJobSpans serves the job's distributed-trace spans as a Chrome
// trace-event artifact (with the raw spans embedded under "spans").
// Unlike telemetry artifacts it is available while the job is still
// running — a partial span tree is exactly what you want when asking
// why a job is slow right now.
func (s *Server) handleJobSpans(w http.ResponseWriter, r *http.Request, j *job) {
	spans, dropped := s.spans.Spans(j.sc.Trace)
	w.Header().Set("Content-Type", "application/json")
	telemetry.WriteSpanTimeline(w, spans, dropped)
}

// handleFlightRecorder dumps the always-on ring of recent job
// transitions, errors and cache decisions — the first stop when the
// daemon is misbehaving and the metrics only say "something is wrong".
func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.flight.WriteJSON(w)
}

// WriteJSON answers with v as indented JSON. The daemon and the
// coordinator answer every JSON response through it and WriteError.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// accept schedules a validated submit and answers it: it streams the
// job when requested (a streamed job is not detached: it is cancelled
// when its last watcher leaves), otherwise it returns the job handle
// (202) or the cached result (200). The request's traceparent header,
// when valid, parents the job's trace; without one this daemon is the
// trace root.
func (s *Server) accept(w http.ResponseWriter, r *http.Request, kind string, spec any,
	run func(context.Context, *job) bench.Result) {
	// A malformed ?offset is refused before the job exists: a watched
	// job queued for a stream that never attaches would run for nobody.
	stream, off := StreamRequested(r), 0
	if stream {
		var ok bool
		if off, ok = StreamOffset(w, r); !ok {
			return
		}
	}
	parent, _ := obs.Extract(r.Header)
	st, j, err := s.submit(kind, spec, !stream, parent, run)
	switch {
	case errors.Is(err, errQueueFull):
		WriteError(w, http.StatusTooManyRequests, "job queue full (depth %d); retry later", s.cfg.QueueDepth)
	case errors.Is(err, errShuttingDown):
		WriteError(w, http.StatusServiceUnavailable, "shutting down")
	case err != nil:
		WriteError(w, http.StatusInternalServerError, "%v", err)
	case j == nil: // cache hit
		WriteJSON(w, http.StatusOK, st)
	case stream:
		s.streamJob(w, r, j, off)
	default:
		WriteJSON(w, http.StatusAccepted, st)
	}
}

// StreamRequested reports whether a submit asked for its progress
// stream (?stream=1) instead of a job handle.
func StreamRequested(r *http.Request) bool {
	v := r.URL.Query().Get("stream")
	return v == "1" || v == "true"
}

func (s *Server) handleSubmitExperiment(w http.ResponseWriter, r *http.Request) {
	var spec experimentSpec
	if !decodeBody(w, r, &spec) {
		return
	}
	e, ok := s.cfg.Lookup(spec.ID)
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown experiment %q; GET /v1/experiments lists the registry", spec.ID)
		return
	}
	s.accept(w, r, "experiment", spec, s.experimentRun(e, spec.Quick))
}

func (s *Server) handleSubmitDirtbuster(w http.ResponseWriter, r *http.Request) {
	var spec dirtbusterSpec
	if !decodeBody(w, r, &spec) {
		return
	}
	wl, ok := s.lookupWorkload(spec.Workload, spec.Quick)
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown workload %q; GET /v1/registry lists them under dirtbuster_workloads", spec.Workload)
		return
	}
	s.accept(w, r, "dirtbuster", spec, s.dirtbusterRun(wl))
}

func (s *Server) handleSubmitTrace(w http.ResponseWriter, r *http.Request) {
	var spec traceSpec
	if !decodeBody(w, r, &spec) {
		return
	}
	// Trace recordings always use smoke-sized workloads, like
	// prestore-trace: full traces of full-size workloads are huge.
	wl, ok := s.lookupWorkload(spec.Workload, true)
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown workload %q; GET /v1/registry lists them under dirtbuster_workloads", spec.Workload)
		return
	}
	s.accept(w, r, "trace", spec, s.traceRun(wl, spec))
}

func (s *Server) handleListExperiments(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		ID    string `json:"id"`
		Title string `json:"title"`
		Paper string `json:"paper"`
	}
	var out []entry
	for _, e := range bench.All() {
		out = append(out, entry{ID: e.ID, Title: e.Title, Paper: e.Paper})
	}
	WriteJSON(w, http.StatusOK, out)
}

func (s *Server) job(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// jobHandler wraps a /v1/jobs/{id}… handler in the job lookup they
// share; unknown IDs are 404s.
func (s *Server) jobHandler(h func(http.ResponseWriter, *http.Request, *job)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j := s.job(r.PathValue("id"))
		if j == nil {
			WriteError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
			return
		}
		h(w, r, j)
	}
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request, j *job) {
	WriteJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request, j *job) {
	s.cancelJob(j)
	WriteJSON(w, http.StatusOK, j.status())
}

// handleStreamJob follows a job for an HTTP client as NDJSON, from
// ?offset=N.
func (s *Server) handleStreamJob(w http.ResponseWriter, r *http.Request, j *job) {
	if off, ok := StreamOffset(w, r); ok {
		s.streamJob(w, r, j, off)
	}
}

// streamJob follows a job as NDJSON: a status line, output chunks as
// the simulation produces them, and a final done line carrying the
// result. ?offset=N replays from byte N of the job's output instead
// of from the start, so a client (or the cluster coordinator proxying
// for one) that lost its connection mid-job can reconnect without
// receiving — or re-emitting — bytes it already consumed. An offset
// beyond the bytes produced so far simply waits for the log to catch
// up. The connection is a watcher: if the last watcher of a
// non-detached job disconnects, the job is cancelled (see unwatch).
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, j *job, off int) {
	// The stream itself is a span in the job's trace: how long a
	// watcher followed, and from what byte offset it (re)attached —
	// reconnect-after-failover shows up as a second stream span with a
	// non-zero offset.
	streamStart, attachOff := time.Now(), off
	defer func() {
		s.tracer.Record(j.sc, "stream.replay", streamStart, time.Now(),
			obs.KV("offset", strconv.Itoa(attachOff)))
	}()
	emit := NDJSON(w)
	s.watch(j)
	defer s.unwatch(j)

	st := j.status()
	if emit(StreamEvent{Event: "status", Job: &st}) != nil {
		return
	}
	for {
		chunk, noff, closed, wake := j.out.next(off)
		if len(chunk) > 0 {
			off = noff
			if emit(StreamEvent{Event: "output", Data: string(chunk)}) != nil {
				return
			}
			continue
		}
		if closed {
			break
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
	<-j.done
	st = j.status()
	emit(StreamEvent{Event: "done", Job: &st})
}

// StreamOffset reads a stream request's ?offset=N (0 when absent); on a
// malformed one it answers 400 and reports false.
func StreamOffset(w http.ResponseWriter, r *http.Request) (int, bool) {
	v := r.URL.Query().Get("offset")
	if v == "" {
		return 0, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		WriteError(w, http.StatusBadRequest, "bad offset %q (want a non-negative integer)", v)
		return 0, false
	}
	return n, true
}

// NDJSON starts a 200 NDJSON stream on w and returns the function that
// writes one event line and flushes it to the client. The daemon's and
// the coordinator's job streams both write through it.
func NDJSON(w http.ResponseWriter) func(StreamEvent) error {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	return func(event StreamEvent) error {
		if err := enc.Encode(event); err != nil {
			return err
		}
		if fl != nil {
			fl.Flush()
		}
		return nil
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
