// Package cluster scales prestored horizontally: a coordinator fronts
// a fleet of worker daemons, routing each submitted job to a shard by
// consistent hashing of its content-address routing key (so the
// workers' content-addressed result caches compose into a distributed
// cache with stable key→shard placement), proxying status, stream and
// artifact requests to the owning shard, and requeuing jobs to the
// next ring position when a shard dies. Because every job's output is
// deterministic (the golden byte-identity guard), a requeued job
// re-produces the exact bytes the dead shard would have produced, and
// the coordinator resumes the client's stream at the byte offset it
// had already forwarded — the cluster boundary is invisible to
// clients, exactly as the single-daemon boundary is.
//
// Everything here is stdlib-only, like the rest of the daemon.
package cluster

import (
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
	// RequestTimeout bounds each unary proxied call (submit, status,
	// cancel, listings); <= 0 means 30 s. Streams are never timed.
	RequestTimeout time.Duration
	// ProbeInterval is the health-probe period; <= 0 means 2 s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz probe; <= 0 means 2 s.
	ProbeTimeout time.Duration
	// Backoff paces retries against a shard answering 429. The zero
	// value is the shared default schedule.
	Backoff server.Backoff
	// Logger receives structured logs; nil discards them.
	Logger *slog.Logger
	// Transport overrides the HTTP transport, shared by unary calls and
	// streams (tests); nil means default.
	Transport http.RoundTripper
	// Instance labels the coordinator's spans, typically its listen
	// address. Empty is fine for tests.
	Instance string
	// Flight is the always-on flight recorder shared with the embedded
	// host; nil means a fresh default-sized one.
	Flight *obs.FlightRecorder
}

const (
	// maxJobs bounds tracked job mappings, oldest evicted first.
	maxJobs = 4096
	// autotuneWorkers sizes the embedded host's worker pool: the number
	// of concurrent autotuning searches and trace analyses (each fans
	// its work out across the shards).
	autotuneWorkers = 2
)

// Coordinator fronts a fleet of prestored worker shards with the same
// HTTP surface a single daemon exposes. Submits are routed by
// consistent hashing of the request's content-address routing key, so
// identical work always lands on the same shard and the shards' result
// caches compose into a distributed cache. Status, stream, artifact
// and cancel requests are proxied to the owning shard. Its mux is
// built from the daemon's route table (server.Routes), so the two
// surfaces cannot drift apart. When a shard
// dies, its jobs are requeued to the next ring position and client
// streams resume at the exact byte offset already forwarded — output
// determinism (the golden byte-identity guard) makes the re-run's
// bytes identical, so clients cannot observe the failover.
type Coordinator struct {
	cfg    Config
	ring   *Ring
	client *server.Client
	prober *prober
	mux    *http.ServeMux
	log    *slog.Logger
	paths  map[string]string // routed job kind → submit path, from the route table

	// tuner is the embedded host: a full worker daemon that runs the
	// coordinator-resident jobs — POST /v1/autotune searches whose
	// candidate evaluations fan out across the shards through
	// clusterEvaluator, and POST /v1/analyses trace analyses whose
	// per-chunk map steps fan out through clusterAnalyzer (the trace
	// store lives on the coordinator too); it also answers the
	// listings. Its job IDs ("job-N") are disjoint from routed ones
	// ("cjob-N"), which is how /v1/jobs dispatch tells them apart.
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
		cfg.Shards[i] = strings.TrimRight(s, "/")
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.Flight == nil {
		cfg.Flight = obs.NewFlightRecorder(0)
	}
	c := &Coordinator{
		cfg:    cfg,
		ring:   NewRing(cfg.Shards),
		client: server.NewClient(cfg.RequestTimeout, cfg.Transport, cfg.Backoff),
		log:    cfg.Logger,
		jobs:   map[string]*cjob{},
		spans:  obs.NewStore(0, 0),
		flight: cfg.Flight,
		start:  time.Now(),
	}
	c.tracer = &obs.Tracer{Service: "coordinator", Instance: cfg.Instance, Store: c.spans}
	c.initMetrics()
	c.prober = newProber(cfg.Shards, c.client, cfg.ProbeInterval, cfg.ProbeTimeout, c.log,
		func(shard int, healthy bool) {
			if !healthy {
				c.m.probeDowns.Inc(cfg.Shards[shard])
				c.flight.Record("shard.down", "", "", cfg.Shards[shard])
			} else {
				c.flight.Record("shard.up", "", "", cfg.Shards[shard])
			}
		})
	c.tuner = server.New(server.Config{
		Workers:           autotuneWorkers,
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

// routes builds the mux from the daemon's route table: submits are
// routed to shards, embedded routes go to the embedded host in
// process, job routes to the job's owner, and the process-local routes
// answer for the fleet. Worker-only routes are not served.
func (c *Coordinator) routes() {
	c.mux = http.NewServeMux()
	c.paths = map[string]string{}
	for _, rt := range c.tuner.Routes() {
		h := rt.Handler
		switch rt.Place {
		case server.Routed:
			_, c.paths[rt.Name], _ = strings.Cut(rt.Pattern, " ")
			h = c.submitHandler(rt.Name)
		case server.Embedded:
			h = c.embedded(rt.Handler)
		case server.JobScoped:
			h = c.jobHandler(rt.Handler, c.jobOp(rt.Name))
		case server.WorkerOnly:
			continue
		case server.Local:
			// The flight recorder is the process's, shared with the
			// embedded host, so its handler already answers for both.
			switch rt.Name {
			case "metrics":
				h = c.handleMetrics
			case "healthz":
				h = c.handleHealthz
			}
		}
		c.mux.HandleFunc(rt.Pattern, h)
	}
}

// jobOp is the coordinator's handler for the routed-job endpoint name
// (a server.JobScoped route's Name).
func (c *Coordinator) jobOp(name string) func(http.ResponseWriter, *http.Request, *cjob) {
	switch name {
	case "status":
		return c.proxy("GET", "", lostRequeue)
	case "cancel":
		return c.proxy("DELETE", "", lostCancelled)
	case "stream":
		return c.handleStreamJob
	case "spans":
		return c.handleJobSpans
	}
	return c.proxy("GET", "/"+name, lostBadGateway)
}

// relay passes a shard's answer through to the client verbatim.
func relay(w http.ResponseWriter, sr *server.Response) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(sr.Code)
	w.Write(sr.Body)
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
	call func(ctx context.Context, shard int) (*server.Response, error)) (int, *server.Response, error) {
	tried, lastShard := 0, -1
	var last *server.Response
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
			if err == nil && sr.Code == http.StatusServiceUnavailable {
				last, lastShard = sr, shard
				err = fmt.Errorf("refused with 503: %s", bytes.TrimSpace(sr.Body))
			}
			if err != nil {
				c.shardFailed(shard, op, err)
				lastErr = err
				break
			}
			if sr.Code != http.StatusTooManyRequests {
				return shard, sr, nil
			}
			last, lastShard = sr, shard
			if attempt == maxBusyRetries {
				break
			}
			if err := c.client.Backoff.Sleep(ctx, attempt); err != nil {
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

// submit routes one job: it content-addresses the body and places it.
// The job's root span continues the span in ctx (the client's
// traceparent for HTTP submits, the search's span for autotune evals),
// and every shard attempt propagates it downstream, so caller,
// coordinator routing and shard-side execution share a trace ID. A
// shard's application-level answer (400 bad spec, 404 unknown
// experiment, 429 when every shard stayed busy) comes back as a nil
// job with the response, for the caller to relay.
func (c *Coordinator) submit(ctx context.Context, kind string, body []byte) (*cjob, *server.Response, error) {
	if c.isClosed() {
		return nil, nil, errClosed
	}
	key, err := routeKey(kind, body)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", errBadBody, err)
	}
	parent, _ := obs.SpanFromContext(ctx)
	j := &cjob{kind: kind, key: key, body: body,
		sc: c.tracer.Child(parent), parentSpan: parent.Span, submitted: time.Now()}
	_, sr, err := c.place(ctx, j, -1)
	if err != nil {
		if ctx.Err() == nil {
			c.m.rejected.Add(1)
			c.flight.Record("job.rejected", "", j.sc.Trace.String(), kind)
		}
		return nil, nil, err
	}
	if j.id == "" { // no shard accepted it
		return nil, sr, nil
	}
	return j, sr, nil
}

// place is the one placement routine, for submits and requeues: it
// POSTs j's original body to its key's ring shards, skipping the lost
// shard from (-1 on a submit), with a route span per attempt, and
// adopts a job-status answer as j's placement — a 200 (the shard's
// cached result) also as its terminal status — moving the routed or
// cache-hit counter. A submitted job gets its coordinator ID at its
// first acceptance. Any other answer is returned untouched.
func (c *Coordinator) place(ctx context.Context, j *cjob, from int) (int, *server.Response, error) {
	op := "submit"
	if from >= 0 {
		op = "requeue"
	}
	ctx = obs.ContextWithSpan(ctx, j.sc)
	start := time.Now()
	shard, sr, err := c.dispatch(ctx, op, j.key, from, func(ctx context.Context, shard int) (*server.Response, error) {
		attempt := time.Now()
		sr, err := c.client.Do(ctx, "POST", c.cfg.Shards[shard]+c.paths[j.kind], "application/json", j.body)
		outcome := "shard-failed"
		if err == nil {
			outcome = strconv.Itoa(sr.Code) // 200 is a shard cache hit
		}
		c.tracer.Record(j.sc, "route", attempt, time.Now(),
			obs.KV("shard", c.cfg.Shards[shard]), obs.KV("kind", j.kind), obs.KV("outcome", outcome))
		return sr, err
	})
	var st *server.JobStatus
	if err == nil {
		st = sr.Job()
	}
	if st == nil {
		return shard, sr, err
	}
	if j.id == "" {
		c.addJob(j)
	}
	to, cached := c.cfg.Shards[shard], sr.Code == http.StatusOK
	j.mu.Lock()
	j.shard, j.remoteID = shard, st.ID
	j.mu.Unlock()
	if cached {
		c.m.cacheHits.Inc(to)
		c.setResult(j, j.rewrite(*st))
	} else {
		c.m.routed.Inc(to)
	}
	if from < 0 {
		if !cached {
			c.flight.Recordf("job.routed", j.id, j.sc.Trace.String(), "%s -> %s (%s)", j.kind, to, st.ID)
		}
		c.log.Info("job routed", "job", j.id, "kind", j.kind, "shard", to, "remote", st.ID,
			"cached", cached, "trace", j.sc.Trace.String())
		return shard, sr, nil
	}
	lost := c.cfg.Shards[from]
	c.m.requeued.Inc(lost)
	c.tracer.Record(j.sc, "requeue", start, time.Now(),
		obs.KV("from", lost), obs.KV("to", to), obs.KV("remote", st.ID), obs.KV("cached", strconv.FormatBool(cached)))
	c.flight.Recordf("job.requeued", j.id, j.sc.Trace.String(), "%s -> %s (%s, cached=%v)", lost, to, st.ID, cached)
	c.log.Warn("job requeued", "job", j.id, "from", lost, "to", to, "remote", st.ID, "cached", cached)
	return shard, sr, nil
}

// submitHandler serves one submit endpoint: submit, then stream the job
// or answer with its handle (202) or cached result (200). A shard's
// application-level answer passes through untouched.
func (c *Coordinator) submitHandler(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, "reading body: %v", err)
			return
		}
		// A malformed ?offset is refused before the job is routed.
		stream, off, ok := server.StreamRequested(w, r)
		if !ok {
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
			server.WriteError(w, http.StatusServiceUnavailable, "shutting down")
		case errors.Is(err, errBadBody):
			server.WriteError(w, http.StatusBadRequest, "%v", err)
		case errors.Is(err, errNoHealthyShard):
			server.WriteError(w, http.StatusServiceUnavailable, "%v (of %d)", errNoHealthyShard, len(c.cfg.Shards))
		case err != nil:
			server.WriteError(w, http.StatusBadGateway, "every healthy shard failed to accept the job")
		case j == nil:
			relay(w, sr)
		case stream:
			c.follow(r.Context(), j, off, server.NDJSON(w))
		default:
			server.WriteJSON(w, sr.Code, j.rewrite(*sr.Job()))
		}
	}
}

// embedded serves a route with the embedded host's handler (h) until
// shutdown: autotuning searches (whose candidate evaluations are
// submitted through the coordinator and routed to shards like any
// other eval), the trace pipeline (uploads land in the embedded host's
// trace store; analysis jobs run there with per-chunk work fanned out
// across the shards by chunk content-address) and the listings, which
// every process of the same binary answers alike.
func (c *Coordinator) embedded(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if c.isClosed() {
			server.WriteError(w, http.StatusServiceUnavailable, "shutting down")
			return
		}
		h(w, r)
	}
}

// jobHandler wraps a /v1/jobs/{id}… handler in the prologue they share:
// IDs outside the routed "cjob-" namespace belong to the embedded host,
// whose handler (embedded) answers them directly; unknown routed IDs
// are 404s.
func (c *Coordinator) jobHandler(embedded http.HandlerFunc, h func(http.ResponseWriter, *http.Request, *cjob)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if !strings.HasPrefix(id, "cjob-") {
			embedded(w, r)
			return
		}
		c.mu.Lock()
		j := c.jobs[id]
		c.mu.Unlock()
		if j == nil {
			server.WriteError(w, http.StatusNotFound, "unknown job %q", id)
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
	for len(c.order) > maxJobs {
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

// setResult records a routed job's terminal status (ID/key already
// rewritten) the first time one is seen, and closes the job's root
// span, submit to terminal status: route and requeue spans nest under
// it, so one trace shows the job's history across every shard it
// touched. A job a shard ran to done counts as done; a shard's cached
// answer does not.
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
	c.tracer.Add(obs.Span{Trace: j.sc.Trace, ID: j.sc.Span, Parent: j.parentSpan, Name: "job",
		Start: j.submitted.UnixNano(), End: time.Now().UnixNano(),
		Attrs: []obs.Attr{obs.KV("kind", j.kind), obs.KV("job", j.id), obs.KV("state", st.State)}})
	c.flight.Record("job."+st.State, j.id, j.sc.Trace.String(), j.kind)
	if st.State == "done" && !st.Cached {
		c.m.jobsDone.Add(1)
	}
}

// rewrite maps a shard's job status into the coordinator's namespace.
// A shard's cached answer names no trace (the job that produced it ran
// in another one), so it takes the routed job's own.
func (j *cjob) rewrite(st server.JobStatus) server.JobStatus {
	st.ID = j.id
	st.Key = j.key
	if st.Cached {
		st.Trace = j.sc.Trace.String()
	}
	return st
}

// requeue reroutes a job off a lost shard through place. The failover
// target's cache may already hold the result (it ran the key before,
// or another client warmed it) — then the requeue resolves to a
// terminal status at once. Safe to call from concurrent proxies: only
// the caller that still observes the failed placement moves the job.
func (c *Coordinator) requeue(ctx context.Context, j *cjob, failedShard int, failedRemoteID string) error {
	j.routeMu.Lock()
	defer j.routeMu.Unlock()
	if shard, remoteID, res := j.placement(); res != nil || shard != failedShard || remoteID != failedRemoteID {
		return nil // finished, or a concurrent proxy already moved it
	}
	// Each job may move at most twice per shard in the fleet.
	maxRequeues := 2 * len(c.cfg.Shards)
	j.mu.Lock()
	over := j.requeues >= maxRequeues
	if !over {
		j.requeues++
	}
	j.mu.Unlock()
	if over {
		return fmt.Errorf("job %s exceeded %d requeues", j.id, maxRequeues)
	}
	// The resubmit continues the job's trace, so the merged span tree
	// shows the whole failover.
	target, sr, err := c.place(ctx, j, failedShard)
	if err == nil && sr.Job() == nil {
		err = fmt.Errorf("shard %s rejected requeued job: %d %s", c.cfg.Shards[target], sr.Code, bytes.TrimSpace(sr.Body))
	}
	return err
}

// lostPolicy is what a job proxy does when the owning shard does not
// answer.
type lostPolicy int

const (
	lostRequeue    lostPolicy = iota // move the job on (also when the shard forgot it)
	lostCancelled                    // report it cancelled: the job died with its shard
	lostBadGateway                   // answer 502
)

// jobCall calls a routed job's endpoint on its owning shard: suffix
// "" is the job itself, "/linereport" one of its artifacts. A shard
// that fails to answer is demoted.
func (c *Coordinator) jobCall(ctx context.Context, j *cjob, method, suffix string) (shard int, remoteID string, sr *server.Response, err error) {
	shard, remoteID, _ = j.placement()
	sr, err = c.client.Do(ctx, method, c.cfg.Shards[shard]+"/v1/jobs/"+remoteID+suffix, "", nil)
	if err != nil && ctx.Err() == nil {
		c.shardFailed(shard, method+" job"+suffix, err)
	}
	return shard, remoteID, sr, err
}

// proxy is the one owning-shard proxy: it serves method on a routed
// job's /v1/jobs/{id}{suffix} from its shard. For the job itself
// (suffix "") a terminal status already held answers without a call,
// and the shard's job status is rewritten into the coordinator's
// namespace, a terminal one recorded. Anything else is relayed.
func (c *Coordinator) proxy(method, suffix string, lost lostPolicy) func(http.ResponseWriter, *http.Request, *cjob) {
	return func(w http.ResponseWriter, r *http.Request, j *cjob) {
		ctx := r.Context()
		if _, _, res := j.placement(); res != nil && suffix == "" {
			server.WriteJSON(w, http.StatusOK, *res)
			return
		}
		shard, remoteID, sr, err := c.jobCall(ctx, j, method, suffix)
		switch {
		case ctx.Err() != nil:
		case lost == lostRequeue && (err != nil || sr.Code == http.StatusNotFound):
			if err := c.requeue(ctx, j, shard, remoteID); err != nil {
				server.WriteError(w, http.StatusBadGateway, "shard lost and requeue failed: %v", err)
			} else if _, _, res := j.placement(); res != nil {
				server.WriteJSON(w, http.StatusOK, *res)
			} else {
				server.WriteJSON(w, http.StatusOK, server.JobStatus{ID: j.id, Kind: j.kind, Key: j.key, State: "queued"})
			}
		case lost == lostCancelled && err != nil:
			st := server.JobStatus{ID: j.id, Kind: j.kind, Key: j.key, State: "cancelled"}
			c.setResult(j, st)
			server.WriteJSON(w, http.StatusOK, st)
		case err != nil:
			server.WriteError(w, http.StatusBadGateway, "owning shard unreachable: %v", err)
		case suffix != "" || sr.Job() == nil:
			relay(w, sr)
		default:
			st := j.rewrite(*sr.Job())
			switch st.State {
			case "done", "failed", "cancelled":
				c.setResult(j, st)
			}
			server.WriteJSON(w, sr.Code, st)
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
// coordinator's side of the story rather than failing the request. A
// job answered from a shard's cache has no shard job of its own (its
// placement names the one that produced the result, in another trace),
// so it serves the coordinator's spans alone.
func (c *Coordinator) handleJobSpans(w http.ResponseWriter, r *http.Request, j *cjob) {
	spans, dropped := c.spans.Spans(j.sc.Trace)
	shard, remoteID, res := j.placement()
	if res == nil || !res.Cached {
		if remote, d, err := c.client.Spans(r.Context(), c.cfg.Shards[shard], remoteID); err == nil {
			spans = append(spans, remote...)
			dropped += d
		}
	}
	w.Header().Set("Content-Type", "application/json")
	telemetry.WriteSpanTimeline(w, spans, dropped)
}

// ---- stream following ----

// handleStreamJob follows a routed job for an HTTP client as NDJSON,
// from ?offset=N; a submit with ?stream=1 is answered the same way.
func (c *Coordinator) handleStreamJob(w http.ResponseWriter, r *http.Request, j *cjob) {
	if off, ok := server.Offset(w, r); ok {
		c.follow(r.Context(), j, off, server.NDJSON(w))
	}
}

// follow delivers a job's stream events to emit across shard failures,
// until the done event, ctx's end, or emit failing (the consumer is
// gone). It tracks the output byte offset already delivered; every
// (re)attach replays from that offset, so the consumer sees each
// output byte exactly once no matter how many times the job moves.
// Duplicate status events from reattaches are suppressed. A broken
// stream first reattaches to the same shard when it still looks
// healthy (a transient drop must not forfeit its cache placement); a
// dead or amnesiac shard triggers a requeue.
func (c *Coordinator) follow(ctx context.Context, j *cjob, offset int, emit func(server.StreamEvent) error) {
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

		progressed, gone := false, false
		err := c.client.Stream(ctx, c.cfg.Shards[shard], remoteID, forwarded, func(ev server.StreamEvent) error {
			switch ev.Event {
			case "status":
				if sentStatus {
					return nil
				}
				sentStatus = true
				if ev.Job != nil {
					st := j.rewrite(*ev.Job)
					ev.Job = &st
				}
			case "output":
				forwarded += len(ev.Data)
				progressed = true
			case "done":
				st := j.rewrite(*ev.Job)
				c.setResult(j, st)
				ev.Job = &st
			}
			err := emit(ev)
			gone = err != nil
			return err
		})
		if err == nil || gone || ctx.Err() != nil {
			return
		}
		if progressed {
			reconnects = 0 // the attach was productive; fresh budget
		}

		// The stream broke (or never attached). Decide: same-shard
		// reconnect, or requeue.
		var se *server.StatusError
		lostJob := errors.As(err, &se) && se.Code == http.StatusNotFound
		if !lostJob && reconnects < 3 && c.prober.probe(ctx, shard) {
			reconnects++
			if c.client.Backoff.Sleep(ctx, reconnects-1) != nil {
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
			emit(server.StreamEvent{Event: "done", Job: &st})
			return
		}
		reconnects = 0
	}
}

// emitTerminal serves the events of a job whose terminal status the
// coordinator already holds (shard cache hit, or a requeue that
// resolved to a cached result): the remaining output bytes and the
// done event. Deterministic output makes the suffix exact.
func emitTerminal(emit func(server.StreamEvent) error, st server.JobStatus, forwarded int, sentStatus bool) {
	if !sentStatus && emit(server.StreamEvent{Event: "status", Job: &st}) != nil {
		return
	}
	if st.Result != nil && forwarded < len(st.Result.Output) &&
		emit(server.StreamEvent{Event: "output", Data: st.Result.Output[forwarded:]}) != nil {
		return
	}
	emit(server.StreamEvent{Event: "done", Job: &st})
}
