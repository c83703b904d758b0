package cluster

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"prestores/internal/bench"
	"prestores/internal/obs"
	"prestores/internal/server"
	"prestores/internal/telemetry"
)

// Config tunes a Coordinator.
type Config struct {
	// Shards are the worker daemons' base URLs (e.g. http://w1:8344).
	// At least one is required.
	Shards []string
	// Replicas is the virtual-node count per shard on the hash ring;
	// <= 0 means the package default (128).
	Replicas int
	// RequestTimeout bounds each unary proxied call (submit, status,
	// cancel, listings); <= 0 means 30 s. Streams are never timed.
	RequestTimeout time.Duration
	// ProbeInterval is the health-probe period; <= 0 means 2 s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz probe; <= 0 means 2 s.
	ProbeTimeout time.Duration
	// MaxRequeues bounds how many times one job may be rerouted after
	// shard loss; <= 0 means 2 × len(Shards).
	MaxRequeues int
	// MaxJobs bounds tracked job mappings, oldest evicted first;
	// <= 0 means 4096.
	MaxJobs int
	// AutotuneWorkers sizes the embedded autotune host's worker pool —
	// the number of concurrent autotuning searches (each search fans its
	// candidate evaluations out across the shards); <= 0 means 2.
	AutotuneWorkers int
	// Backoff paces retries against a shard answering 429. The zero
	// value is the shared default schedule.
	Backoff Backoff
	// Logger receives structured logs; nil discards them.
	Logger *slog.Logger
	// Transport overrides the HTTP transport (tests); nil means default.
	Transport http.RoundTripper
	// Instance labels the coordinator's spans, typically its listen
	// address. Empty is fine for tests.
	Instance string
	// Flight is the always-on flight recorder shared with the embedded
	// host; nil means a fresh default-sized one.
	Flight *obs.FlightRecorder
}

// Coordinator fronts a fleet of prestored worker shards with the same
// HTTP surface a single daemon exposes. Submits are routed by
// consistent hashing of the request's content-address routing key, so
// identical work always lands on the same shard and the shards' result
// caches compose into a distributed cache. Status, stream, artifact
// and cancel requests are proxied to the owning shard. When a shard
// dies, its jobs are requeued to the next ring position and client
// streams resume at the exact byte offset already forwarded — output
// determinism (the golden byte-identity guard) makes the re-run's
// bytes identical, so clients cannot observe the failover.
type Coordinator struct {
	cfg    Config
	ring   *Ring
	sc     *shardClient
	prober *prober
	mux    *http.ServeMux
	log    *slog.Logger

	// tuner is the embedded host: a full worker daemon that runs the
	// coordinator-resident jobs — POST /v1/autotune searches whose
	// candidate evaluations fan out across the shards through
	// clusterEvaluator, and POST /v1/analyses trace analyses whose
	// per-chunk map steps fan out through clusterAnalyzer (the trace
	// store lives on the coordinator too). Its job IDs ("job-N") are
	// disjoint from routed ones ("cjob-N"), which is how /v1/jobs
	// dispatch tells them apart.
	tuner *server.Server

	mu     sync.Mutex
	closed bool
	seq    uint64
	jobs   map[string]*cjob
	order  []string // job IDs, eviction order

	tracer *obs.Tracer // routing/requeue spans, merged with shard spans per job
	spans  *obs.Store
	flight *obs.FlightRecorder

	reg   obs.Registry
	m     cmetrics
	start time.Time
}

// cjob is the coordinator's view of one routed job: where it lives
// now, the original submit body (the requeue payload), and the
// terminal status once known.
type cjob struct {
	id   string
	kind string
	key  string // routing key
	body []byte // original submit body, forwarded verbatim

	// sc is the job's root span context on the coordinator (trace
	// continued from the submitter's span when there is one: a client's
	// traceparent, or the autotune search evaluating a candidate);
	// parentSpan is the span it nests under. submitted is the
	// root span's start; the span closes at the first terminal status.
	sc         obs.SpanContext
	parentSpan obs.SpanID
	submitted  time.Time

	// routeMu serializes requeues; mu guards the fields below.
	routeMu  sync.Mutex
	mu       sync.Mutex
	shard    int
	remoteID string
	requeues int
	result   *server.JobStatus // terminal status, ID already rewritten
}

func (j *cjob) placement() (shard int, remoteID string, result *server.JobStatus) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.shard, j.remoteID, j.result
}

var (
	errNoHealthyShard = errors.New("no healthy worker shard")
	errClosed         = errors.New("shutting down")
	errBadBody        = errors.New("bad request body")
)

// New builds a Coordinator over the given shards and starts its
// health prober. Serve Handler(), stop with Shutdown.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: at least one worker shard is required")
	}
	for i, s := range cfg.Shards {
		cfg.Shards[i] = trimSlash(s)
	}
	if cfg.MaxRequeues <= 0 {
		cfg.MaxRequeues = 2 * len(cfg.Shards)
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 4096
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.Flight == nil {
		cfg.Flight = obs.NewFlightRecorder(0)
	}
	c := &Coordinator{
		cfg:    cfg,
		ring:   NewRing(cfg.Shards, cfg.Replicas),
		sc:     newShardClient(cfg.RequestTimeout, cfg.Backoff, cfg.Transport),
		log:    cfg.Logger,
		jobs:   map[string]*cjob{},
		spans:  obs.NewStore(0, 0),
		flight: cfg.Flight,
		start:  time.Now(),
	}
	c.tracer = &obs.Tracer{Service: "coordinator", Instance: cfg.Instance, Store: c.spans}
	c.initMetrics()
	c.prober = newProber(cfg.Shards, c.sc, cfg.ProbeInterval, cfg.ProbeTimeout, c.log,
		func(shard int, healthy bool) {
			if !healthy {
				c.m.probeDowns.Inc(cfg.Shards[shard])
				c.flight.Record("shard.down", "", "", cfg.Shards[shard])
			} else {
				c.flight.Record("shard.up", "", "", cfg.Shards[shard])
			}
		})
	tuneWorkers := cfg.AutotuneWorkers
	if tuneWorkers <= 0 {
		tuneWorkers = 2
	}
	c.tuner = server.New(server.Config{
		Workers:           tuneWorkers,
		AutotuneEvaluator: clusterEvaluator{c: c},
		ChunkAnalyzer:     clusterAnalyzer{c: c},
		Logger:            cfg.Logger,
		Instance:          "embedded",
		Flight:            cfg.Flight, // one black box for the whole coordinator process
	})
	c.routes()
	go c.prober.run()
	return c, nil
}

func trimSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}

// Handler returns the coordinator's HTTP surface.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// isClosed reports whether Shutdown has begun.
func (c *Coordinator) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Shutdown stops the prober, refuses new submits and drains the
// embedded autotune host. The coordinator runs no routed jobs of its
// own — in-flight proxied streams end when their client or shard side
// does.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.prober.close()
	return c.tuner.Shutdown(ctx)
}

// routeKey content-addresses a submit for placement: the job kind and
// the body's canonical JSON (sorted keys, insignificant whitespace
// dropped, numbers kept verbatim), hashed. Placement does not need to
// equal the workers' cache keys — it only needs to be stable, so that
// identical submits always reach the shard holding the cached result.
func routeKey(kind string, body []byte) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return "", err
	}
	canon, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ---- HTTP surface ----

func (c *Coordinator) routes() {
	c.mux = http.NewServeMux()
	for kind, path := range submitPaths {
		c.mux.HandleFunc("POST "+path, c.submitHandler(kind))
	}
	c.mux.HandleFunc("POST /v1/autotune", c.embedded)
	c.mux.HandleFunc("POST /v1/traces", c.embedded)
	c.mux.HandleFunc("GET /v1/traces", c.embedded)
	c.mux.HandleFunc("PUT /v1/traces/uploads/{id}", c.embedded)
	c.mux.HandleFunc("POST /v1/traces/uploads/{id}/commit", c.embedded)
	c.mux.HandleFunc("DELETE /v1/traces/uploads/{id}", c.embedded)
	c.mux.HandleFunc("GET /v1/traces/{address}", c.embedded)
	c.mux.HandleFunc("DELETE /v1/traces/{address}", c.embedded)
	c.mux.HandleFunc("POST /v1/analyses", c.embedded)
	c.mux.HandleFunc("GET /v1/experiments", c.passthrough("/v1/experiments"))
	c.mux.HandleFunc("GET /v1/registry", c.passthrough("/v1/registry"))
	c.mux.HandleFunc("GET /v1/workloads", c.passthrough("/v1/workloads"))
	c.mux.HandleFunc("GET /v1/jobs/{id}", c.jobHandler(c.handleGetJob))
	c.mux.HandleFunc("GET /v1/jobs/{id}/stream", c.jobHandler(c.handleStreamJob))
	for _, name := range []string{"timeline", "linereport", "trajectory", "winner"} {
		c.mux.HandleFunc("GET /v1/jobs/{id}/"+name, c.jobHandler(c.artifactHandler(name)))
	}
	c.mux.HandleFunc("GET /v1/jobs/{id}/spans", c.jobHandler(c.handleJobSpans))
	c.mux.HandleFunc("DELETE /v1/jobs/{id}", c.jobHandler(c.handleCancelJob))
	c.mux.HandleFunc("GET /v1/debug/flightrecorder", c.handleFlightRecorder)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
}

// submitPaths maps each routed job kind to its submit endpoint.
var submitPaths = map[string]string{
	"experiment": "/v1/experiments",
	"dirtbuster": "/v1/dirtbuster",
	"trace":      "/v1/trace",
	"scenario":   "/v1/scenarios",
	"eval":       "/v1/eval",
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// relay passes a shard's answer through to the client verbatim.
func relay(w http.ResponseWriter, sr *shardResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(sr.code)
	w.Write(sr.body)
}

func streamRequested(r *http.Request) bool {
	v := r.URL.Query().Get("stream")
	return v == "1" || v == "true"
}

// ---- routing ----

// maxBusyRetries bounds how often dispatch retries a shard answering
// 429 before it moves on to the next one.
const maxBusyRetries = 8

// dispatch is the coordinator's one routing primitive: it walks key's
// ring preference order over healthy shards, skipping skip (the lost
// shard during a requeue; -1 for none), and calls call on each until
// one gives a final answer. Every caller gets the same rule:
//
//   - a transport failure or a 503 (the shard is draining) demotes the
//     shard and moves on to the next one;
//   - a 429 is retried on the same shard with the shared backoff, at
//     most maxBusyRetries times, and then moves on;
//   - any other answer is final, and is returned with its shard.
//
// When no shard was tried it returns errNoHealthyShard. When every
// shard tried was busy or draining, the last such answer is returned
// as final; when none answered at all, the last transport error is.
// op names the call in logs and the flight recorder.
func (c *Coordinator) dispatch(ctx context.Context, op, key string, skip int,
	call func(ctx context.Context, shard int) (*shardResponse, error)) (int, *shardResponse, error) {
	tried, lastShard := 0, -1
	var last *shardResponse
	var lastErr error
	for _, shard := range c.ring.Sequence(key) {
		if shard == skip || !c.prober.healthy(shard) {
			continue
		}
		tried++
		for attempt := 0; ; attempt++ {
			sr, err := call(ctx, shard)
			if err != nil && ctx.Err() != nil {
				return -1, nil, ctx.Err()
			}
			if err == nil && sr.code == http.StatusServiceUnavailable {
				last, lastShard = sr, shard
				err = fmt.Errorf("refused with 503: %s", bytes.TrimSpace(sr.body))
			}
			if err != nil {
				c.shardFailed(shard, op, err)
				lastErr = err
				break
			}
			if sr.code != http.StatusTooManyRequests {
				return shard, sr, nil
			}
			last, lastShard = sr, shard
			if attempt == maxBusyRetries {
				break
			}
			if err := c.sc.bo.Sleep(ctx, attempt); err != nil {
				return -1, nil, err
			}
		}
	}
	switch {
	case tried == 0:
		return -1, nil, errNoHealthyShard
	case last != nil:
		return lastShard, last, nil
	}
	return -1, nil, fmt.Errorf("every healthy shard failed: %w", lastErr)
}

// submit routes one job: it content-addresses the body, dispatches it
// to the key's shard, and registers the accepted job under a
// coordinator ID. The job's root span continues the span in ctx (the
// client's traceparent for HTTP submits, the search's span for
// autotune evals), and every shard attempt propagates it downstream,
// so caller, coordinator routing and shard-side execution share a
// trace ID. A shard's application-level answer (400 bad spec, 404
// unknown experiment, 429 when every shard stayed busy) comes back as
// a nil job with the response, for the caller to relay.
func (c *Coordinator) submit(ctx context.Context, kind string, body []byte) (*cjob, *shardResponse, error) {
	if c.isClosed() {
		return nil, nil, errClosed
	}
	key, err := routeKey(kind, body)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", errBadBody, err)
	}
	path := submitPaths[kind]
	parent, _ := obs.SpanFromContext(ctx)
	sc := c.tracer.Child(parent)
	submitted := time.Now()
	ctx = obs.ContextWithSpan(ctx, sc)

	shard, sr, err := c.dispatch(ctx, "submit", key, -1, func(ctx context.Context, shard int) (*shardResponse, error) {
		attempt := time.Now()
		sr, err := c.sc.do(ctx, "POST", c.cfg.Shards[shard]+path, jsonType, body, unaryCap)
		outcome := "shard-failed"
		if err == nil {
			outcome = strconv.Itoa(sr.code) // 200 is a shard cache hit
		}
		c.tracer.Record(sc, "route", attempt, time.Now(),
			obs.KV("shard", c.cfg.Shards[shard]), obs.KV("kind", kind), obs.KV("outcome", outcome))
		return sr, err
	})
	if err != nil {
		if ctx.Err() == nil {
			c.m.rejected.Add(1)
			c.flight.Record("job.rejected", "", sc.Trace.String(), kind)
		}
		return nil, nil, err
	}
	st := sr.job()
	if st == nil {
		return nil, sr, nil
	}
	url := c.cfg.Shards[shard]
	j := &cjob{kind: kind, key: key, body: body,
		shard: shard, remoteID: st.ID,
		sc: sc, parentSpan: parent.Span, submitted: submitted}
	cached := sr.code == http.StatusOK
	c.addJob(j)
	if cached { // shard cache hit: born terminal
		c.m.cacheHits.Inc(url)
		res := j.rewrite(*st)
		j.mu.Lock()
		j.result = &res
		j.mu.Unlock()
		c.closeRootSpan(j, res.State)
	} else {
		c.m.routed.Inc(url)
		c.flight.Recordf("job.routed", j.id, sc.Trace.String(), "%s -> %s (%s)", kind, url, j.remoteID)
	}
	c.log.Info("job routed", "job", j.id, "kind", kind, "shard", url, "remote", j.remoteID,
		"cached", cached, "trace", sc.Trace.String())
	return j, sr, nil
}

// submitHandler serves one submit endpoint: submit, then stream the job
// or answer with its handle (202) or cached result (200). A shard's
// application-level answer passes through untouched.
func (c *Coordinator) submitHandler(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			writeError(w, http.StatusBadRequest, "reading body: %v", err)
			return
		}
		ctx := r.Context()
		if sc, ok := obs.Extract(r.Header); ok {
			ctx = obs.ContextWithSpan(ctx, sc)
		}
		j, sr, err := c.submit(ctx, kind, body)
		switch {
		case r.Context().Err() != nil:
			// client gone; nothing to answer
		case errors.Is(err, errClosed):
			writeError(w, http.StatusServiceUnavailable, "shutting down")
		case errors.Is(err, errBadBody):
			writeError(w, http.StatusBadRequest, "%v", err)
		case errors.Is(err, errNoHealthyShard):
			writeError(w, http.StatusServiceUnavailable, "%v (of %d)", errNoHealthyShard, len(c.cfg.Shards))
		case err != nil:
			writeError(w, http.StatusBadGateway, "every healthy shard failed to accept the job")
		case j == nil:
			relay(w, sr)
		case streamRequested(r):
			c.streamProxy(w, r, j, 0)
		default:
			writeJSON(w, sr.code, j.rewrite(*sr.job()))
		}
	}
}

// embedded delegates a request to the embedded host: autotuning
// searches (whose candidate evaluations are submitted through the
// coordinator and routed to shards like any other eval) and the trace
// pipeline (uploads land in the embedded host's trace store; analysis
// jobs run there with per-chunk work fanned out across the shards by
// chunk content-address).
func (c *Coordinator) embedded(w http.ResponseWriter, r *http.Request) {
	if c.isClosed() {
		writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	c.tuner.Handler().ServeHTTP(w, r)
}

// jobHandler wraps a /v1/jobs/{id}… handler in the prologue they share:
// IDs outside the routed "cjob-" namespace belong to the embedded host
// and are answered by it directly; unknown routed IDs are 404s.
func (c *Coordinator) jobHandler(h func(http.ResponseWriter, *http.Request, *cjob)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if !strings.HasPrefix(id, "cjob-") {
			c.tuner.Handler().ServeHTTP(w, r)
			return
		}
		c.mu.Lock()
		j := c.jobs[id]
		c.mu.Unlock()
		if j == nil {
			writeError(w, http.StatusNotFound, "unknown job %q", id)
			return
		}
		h(w, r, j)
	}
}

// addJob registers a routed job under a coordinator-namespaced ID
// ("cjob-N", disjoint from the workers' "job-N") and evicts the
// oldest mappings beyond the bound.
func (c *Coordinator) addJob(j *cjob) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	j.id = fmt.Sprintf("cjob-%d", c.seq)
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
	for len(c.order) > c.cfg.MaxJobs {
		delete(c.jobs, c.order[0])
		c.order = c.order[1:]
	}
}

// shardFailed demotes a shard after a call it failed to answer.
func (c *Coordinator) shardFailed(shard int, op string, err error) {
	c.m.shardErrors.Inc(c.cfg.Shards[shard])
	c.flight.Recordf("shard.error", "", "", "%s %s: %v", c.cfg.Shards[shard], op, err)
	c.log.Warn("shard call failed", "shard", c.cfg.Shards[shard], "op", op, "err", err)
	c.prober.markDown(shard)
}

// setResult records a terminal status (ID/key already rewritten).
func (c *Coordinator) setResult(j *cjob, st server.JobStatus) {
	j.mu.Lock()
	first := j.result == nil
	if first {
		j.result = &st
	}
	j.mu.Unlock()
	if !first {
		return
	}
	c.closeRootSpan(j, st.State)
	if st.State == "done" {
		c.m.jobsDone.Add(1)
	}
}

// closeRootSpan emits the routed job's root span, spanning submit to
// terminal status. Route/requeue child spans nest under it, so one
// trace shows the job's full history across every shard it touched.
func (c *Coordinator) closeRootSpan(j *cjob, state string) {
	c.tracer.Add(obs.Span{Trace: j.sc.Trace, ID: j.sc.Span, Parent: j.parentSpan, Name: "job",
		Start: j.submitted.UnixNano(), End: time.Now().UnixNano(),
		Attrs: []obs.Attr{obs.KV("kind", j.kind), obs.KV("job", j.id), obs.KV("state", state)}})
	c.flight.Record("job."+state, j.id, j.sc.Trace.String(), j.kind)
}

// rewrite maps a shard's job status into the coordinator's namespace.
func (j *cjob) rewrite(st server.JobStatus) server.JobStatus {
	st.ID = j.id
	st.Key = j.key
	return st
}

// requeue reroutes a job off a lost shard to the next healthy ring
// position, resubmitting the original body verbatim. The failover
// target's local cache may already hold the result (it ran the key
// before, or the job finished just before the shard died and another
// client warmed it) — then the requeue resolves to a terminal status
// immediately. Safe to call from concurrent proxies: only the caller
// that still observes the failed placement moves the job.
func (c *Coordinator) requeue(ctx context.Context, j *cjob, failedShard int, failedRemoteID string) error {
	j.routeMu.Lock()
	defer j.routeMu.Unlock()
	shard, remoteID, res := j.placement()
	if res != nil {
		return nil // finished before we got here
	}
	if shard != failedShard || remoteID != failedRemoteID {
		return nil // a concurrent proxy already moved it
	}
	j.mu.Lock()
	over := j.requeues >= c.cfg.MaxRequeues
	if !over {
		j.requeues++
	}
	j.mu.Unlock()
	if over {
		return fmt.Errorf("job %s exceeded %d requeues", j.id, c.cfg.MaxRequeues)
	}

	// The resubmit continues the job's trace: the replacement shard's
	// spans land under the same trace ID as the lost shard's, so the
	// merged span tree shows the whole failover.
	ctx = obs.ContextWithSpan(ctx, j.sc)
	rqStart := time.Now()
	target, sr, err := c.dispatch(ctx, "requeue", j.key, failedShard, func(ctx context.Context, shard int) (*shardResponse, error) {
		return c.sc.do(ctx, "POST", c.cfg.Shards[shard]+submitPaths[j.kind], jsonType, j.body, unaryCap)
	})
	if err != nil {
		return err
	}
	from, to := c.cfg.Shards[failedShard], c.cfg.Shards[target]
	st := sr.job()
	if st == nil {
		return fmt.Errorf("shard %s rejected requeued job: %d %s", to, sr.code, bytes.TrimSpace(sr.body))
	}
	cached := sr.code == http.StatusOK
	c.m.requeued.Inc(from)
	if cached {
		c.m.cacheHits.Inc(to)
	} else {
		j.mu.Lock()
		j.shard, j.remoteID = target, st.ID
		j.mu.Unlock()
		c.m.routed.Inc(to)
	}
	c.tracer.Record(j.sc, "requeue", rqStart, time.Now(),
		obs.KV("from", from), obs.KV("to", to), obs.KV("remote", st.ID), obs.KV("cached", strconv.FormatBool(cached)))
	c.flight.Recordf("job.requeued", j.id, j.sc.Trace.String(), "%s -> %s (%s, cached=%v)", from, to, st.ID, cached)
	c.log.Warn("job requeued", "job", j.id, "from", from, "to", to, "remote", st.ID, "cached", cached)
	if cached { // the target already held the result
		c.setResult(j, j.rewrite(*st))
	}
	return nil
}

// jobCall calls a routed job's endpoint on its owning shard: suffix ""
// is the job itself, "/linereport" one of its artifacts. A shard that
// fails to answer is demoted.
func (c *Coordinator) jobCall(ctx context.Context, j *cjob, method, suffix string) (shard int, remoteID string, sr *shardResponse, err error) {
	shard, remoteID, _ = j.placement()
	sr, err = c.sc.do(ctx, method, c.cfg.Shards[shard]+"/v1/jobs/"+remoteID+suffix, "", nil, unaryCap)
	if err != nil && ctx.Err() == nil {
		c.shardFailed(shard, method+" job"+suffix, err)
	}
	return shard, remoteID, sr, err
}

func (c *Coordinator) handleGetJob(w http.ResponseWriter, r *http.Request, j *cjob) {
	if _, _, res := j.placement(); res != nil {
		writeJSON(w, http.StatusOK, *res)
		return
	}
	shard, remoteID, sr, err := c.jobCall(r.Context(), j, "GET", "")
	switch {
	case r.Context().Err() != nil:
	case err != nil || sr.code == http.StatusNotFound: // shard lost, or restarted and lost its jobs
		if err := c.requeue(r.Context(), j, shard, remoteID); err != nil {
			writeError(w, http.StatusBadGateway, "shard lost and requeue failed: %v", err)
		} else if _, _, res := j.placement(); res != nil {
			writeJSON(w, http.StatusOK, *res)
		} else {
			writeJSON(w, http.StatusOK, server.JobStatus{ID: j.id, Kind: j.kind, Key: j.key, State: "queued"})
		}
	case sr.job() == nil:
		relay(w, sr)
	default:
		st := j.rewrite(*sr.job())
		switch st.State {
		case "done", "failed", "cancelled":
			c.setResult(j, st)
		}
		writeJSON(w, http.StatusOK, st)
	}
}

func (c *Coordinator) handleCancelJob(w http.ResponseWriter, r *http.Request, j *cjob) {
	if _, _, res := j.placement(); res != nil {
		writeJSON(w, http.StatusOK, *res)
		return
	}
	_, _, sr, err := c.jobCall(r.Context(), j, "DELETE", "")
	switch {
	case r.Context().Err() != nil:
	case err != nil:
		// A dead shard's job is dead with it; report it cancelled
		// rather than requeuing work nobody wants anymore.
		st := server.JobStatus{ID: j.id, Kind: j.kind, Key: j.key, State: "cancelled"}
		c.setResult(j, st)
		writeJSON(w, http.StatusOK, st)
	case sr.job() == nil:
		relay(w, sr)
	default:
		writeJSON(w, sr.code, j.rewrite(*sr.job()))
	}
}

// artifactHandler proxies a job's telemetry artifact from its shard.
func (c *Coordinator) artifactHandler(name string) func(http.ResponseWriter, *http.Request, *cjob) {
	return func(w http.ResponseWriter, r *http.Request, j *cjob) {
		_, _, sr, err := c.jobCall(r.Context(), j, "GET", "/"+name)
		switch {
		case r.Context().Err() != nil:
		case err != nil:
			writeError(w, http.StatusBadGateway, "owning shard unreachable: %v", err)
		default:
			relay(w, sr)
		}
	}
}

// passthrough proxies a read-only listing to a healthy shard: every
// worker runs the same binary, so any of them can answer.
func (c *Coordinator) passthrough(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		_, sr, err := c.dispatch(r.Context(), "passthrough", path, -1, func(ctx context.Context, shard int) (*shardResponse, error) {
			return c.sc.do(ctx, "GET", c.cfg.Shards[shard]+path, "", nil, unaryCap)
		})
		switch {
		case r.Context().Err() != nil:
		case err != nil:
			writeError(w, http.StatusServiceUnavailable, "%v (of %d)", err, len(c.cfg.Shards))
		default:
			relay(w, sr)
		}
	}
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if c.isClosed() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	n := c.prober.healthyCount()
	if n == 0 {
		http.Error(w, "no healthy shards", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ok (%d/%d shards healthy)\n", n, len(c.cfg.Shards))
}

// handleJobSpans serves a routed job's merged span timeline: the
// coordinator's own spans (root, queue routing, requeues) plus the
// owning shard's spans for the same trace, fetched live. The shard
// fetch is best-effort — a dead shard degrades the artifact to the
// coordinator's side of the story rather than failing the request.
func (c *Coordinator) handleJobSpans(w http.ResponseWriter, r *http.Request, j *cjob) {
	spans, dropped := c.spans.Spans(j.sc.Trace)
	if _, _, sr, err := c.jobCall(r.Context(), j, "GET", "/spans"); err == nil && sr.code == http.StatusOK {
		var remote struct {
			OtherData struct {
				Dropped int `json:"droppedSpans"`
			} `json:"otherData"`
			Spans []obs.Span `json:"spans"`
		}
		if json.Unmarshal(sr.body, &remote) == nil {
			spans = append(spans, remote.Spans...)
			dropped += remote.OtherData.Dropped
		}
	}
	w.Header().Set("Content-Type", "application/json")
	telemetry.WriteSpanTimeline(w, spans, dropped)
}

// handleFlightRecorder dumps the coordinator process's flight recorder
// (shared with the embedded host, so routing decisions, shard health
// transitions and embedded-job events interleave in one timeline).
func (c *Coordinator) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	c.flight.WriteJSON(w)
}

// ---- stream following ----

// streamEvent mirrors the worker daemon's NDJSON stream line.
type streamEvent struct {
	Event string            `json:"event"`
	Data  string            `json:"data,omitempty"`
	Job   *server.JobStatus `json:"job,omitempty"`
}

func (c *Coordinator) handleStreamJob(w http.ResponseWriter, r *http.Request, j *cjob) {
	off := 0
	if v := r.URL.Query().Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad offset %q (want a non-negative integer)", v)
			return
		}
		off = n
	}
	c.streamProxy(w, r, j, off)
}

// streamProxy serves a job's events to an HTTP client as NDJSON.
func (c *Coordinator) streamProxy(w http.ResponseWriter, r *http.Request, j *cjob, offset int) {
	emit := server.NDJSON(w)
	c.follow(r.Context(), j, offset, func(ev streamEvent) error { return emit(ev) })
}

// follow delivers a job's stream events to emit across shard failures,
// until the done event, ctx's end, or emit failing (the consumer is
// gone). It tracks the output byte offset already delivered; every
// (re)attach replays from that offset, so the consumer sees each
// output byte exactly once no matter how many times the job moves. A
// broken stream first reattaches to the same shard when it still looks
// healthy (a transient drop must not forfeit its cache placement); a
// dead or amnesiac shard triggers a requeue.
func (c *Coordinator) follow(ctx context.Context, j *cjob, offset int, emit func(streamEvent) error) {
	c.m.streamsUp.Add(1)
	defer c.m.streamsUp.Add(-1)

	forwarded := offset
	sentStatus := false
	reconnects := 0
	for ctx.Err() == nil {
		shard, remoteID, res := j.placement()
		if res != nil {
			emitTerminal(emit, *res, forwarded, sentStatus)
			return
		}

		body, code, err := c.sc.openStream(ctx, c.cfg.Shards[shard], remoteID, forwarded)
		progressed := false
		if err == nil {
			var done bool
			done, progressed = c.copyStream(ctx, emit, j, body, &forwarded, &sentStatus)
			body.Close()
			if done {
				return
			}
		}
		if ctx.Err() != nil {
			return
		}
		if progressed {
			reconnects = 0
		}

		// The stream broke (or never attached). Decide: same-shard
		// reconnect, or requeue.
		lostJob := code == http.StatusNotFound
		sameShardOK := !lostJob && reconnects < 3 &&
			c.sc.healthy(ctx, c.cfg.Shards[shard], c.prober.timeout)
		if sameShardOK {
			reconnects++
			if c.sc.bo.Sleep(ctx, reconnects-1) != nil {
				return
			}
			continue
		}
		if !lostJob {
			c.shardFailed(shard, "stream", err)
		}
		if rqErr := c.requeue(ctx, j, shard, remoteID); rqErr != nil {
			if ctx.Err() != nil {
				return
			}
			st := server.JobStatus{ID: j.id, Kind: j.kind, Key: j.key, State: "failed",
				Error:  rqErr.Error(),
				Result: &bench.Result{ID: j.kind, Title: "lost to shard failure", Err: rqErr.Error()}}
			c.setResult(j, st)
			emit(streamEvent{Event: "done", Job: &st})
			return
		}
		reconnects = 0
	}
}

// copyStream forwards one attached shard stream to emit until it ends.
// Returns done=true when the terminal event was delivered (or the
// consumer is gone), and whether any output bytes were forwarded
// (progress resets the reconnect budget). Duplicate status events from
// reattaches are suppressed; output offsets are accounted so reattaches
// never repeat a byte.
func (c *Coordinator) copyStream(ctx context.Context, emit func(streamEvent) error, j *cjob,
	body io.Reader, forwarded *int, sentStatus *bool) (done, progressed bool) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return false, progressed // treat like transport loss
		}
		switch ev.Event {
		case "status":
			if *sentStatus {
				continue
			}
			if ev.Job != nil {
				st := j.rewrite(*ev.Job)
				ev.Job = &st
			}
			if emit(ev) != nil {
				return true, progressed
			}
			*sentStatus = true
		case "output":
			*forwarded += len(ev.Data)
			progressed = true
			if emit(ev) != nil {
				return true, progressed
			}
		case "done":
			if ev.Job == nil {
				return false, progressed
			}
			st := j.rewrite(*ev.Job)
			c.setResult(j, st)
			ev.Job = &st
			emit(ev)
			return true, progressed
		}
		if ctx.Err() != nil {
			return true, progressed
		}
	}
	return false, progressed
}

// emitTerminal serves the events of a job whose terminal status the
// coordinator already holds (shard cache hit, or a requeue that
// resolved to a cached result): the remaining output bytes and the
// done event. Deterministic output makes the suffix exact.
func emitTerminal(emit func(streamEvent) error, st server.JobStatus, forwarded int, sentStatus bool) {
	if !sentStatus && emit(streamEvent{Event: "status", Job: &st}) != nil {
		return
	}
	if st.Result != nil && forwarded < len(st.Result.Output) &&
		emit(streamEvent{Event: "output", Data: st.Result.Output[forwarded:]}) != nil {
		return
	}
	emit(streamEvent{Event: "done", Job: &st})
}
