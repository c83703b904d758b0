package server

import (
	"net/http"
	netpprof "net/http/pprof"
)

// Place says where a cluster coordinator serves a route of the job
// API. The daemon serves every route itself.
type Place int

const (
	// Routed is a submit the coordinator routes to a worker shard by
	// the body's content address; the route's Name is its job kind.
	Routed Place = iota
	// Embedded is answered in process by the coordinator's embedded
	// host — the same daemon code, so the answer is the daemon's.
	Embedded
	// JobScoped is a /v1/jobs/{id}… route: a routed job's owning shard
	// answers it through the coordinator, an embedded-host job's host
	// answers it directly. Name is the job operation or artifact.
	JobScoped
	// WorkerOnly is not served by a coordinator.
	WorkerOnly
	// Local is answered by whichever process receives it; Name says
	// which process-local endpoint it is.
	Local
)

// Route is one endpoint of the job API: the single declaration both
// the daemon's mux and the coordinator's are built from.
type Route struct {
	Pattern string // method and path, e.g. "POST /v1/eval"
	Place   Place
	Name    string           // see Place
	Handler http.HandlerFunc // the daemon's handler
}

// Routes returns the job API with the daemon's handlers bound to s.
func (s *Server) Routes() []Route {
	jh := s.jobHandler
	return []Route{
		{"POST /v1/experiments", Routed, "experiment", s.handleSubmitExperiment},
		{"POST /v1/dirtbuster", Routed, "dirtbuster", s.handleSubmitDirtbuster},
		{"POST /v1/trace", Routed, "trace", s.handleSubmitTrace},
		{"POST /v1/scenarios", Routed, "scenario", s.handleSubmitScenario},
		{"POST /v1/eval", Routed, "eval", s.handleSubmitEval},

		{"POST /v1/autotune", Embedded, "", s.handleSubmitAutotune},
		{"POST /v1/traces", Embedded, "", s.handleTracePost},
		{"GET /v1/traces", Embedded, "", s.handleTraceList},
		{"PUT /v1/traces/uploads/{id}", Embedded, "", s.handleTraceUploadPut},
		{"POST /v1/traces/uploads/{id}/commit", Embedded, "", s.handleTraceUploadCommit},
		{"DELETE /v1/traces/uploads/{id}", Embedded, "", s.handleTraceUploadAbort},
		{"GET /v1/traces/{address}", Embedded, "", s.handleTraceGet},
		{"DELETE /v1/traces/{address}", Embedded, "", s.handleTraceDelete},
		{"POST /v1/analyses", Embedded, "", s.handleSubmitAnalysis},
		{"GET /v1/experiments", Embedded, "", s.handleListExperiments},
		{"GET /v1/registry", Embedded, "", s.handleRegistry},

		{"GET /v1/jobs/{id}", JobScoped, "status", jh(s.handleGetJob)},
		{"GET /v1/jobs/{id}/stream", JobScoped, "stream", jh(s.handleStreamJob)},
		{"GET /v1/jobs/{id}/timeline", JobScoped, "timeline", jh(s.artifactHandler("timeline"))},
		{"GET /v1/jobs/{id}/linereport", JobScoped, "linereport", jh(s.artifactHandler("linereport"))},
		{"GET /v1/jobs/{id}/trajectory", JobScoped, "trajectory", jh(s.artifactHandler("trajectory"))},
		{"GET /v1/jobs/{id}/winner", JobScoped, "winner", jh(s.artifactHandler("winner"))},
		{"GET /v1/jobs/{id}/spans", JobScoped, "spans", jh(s.handleJobSpans)},
		{"DELETE /v1/jobs/{id}", JobScoped, "cancel", jh(s.handleCancelJob)},

		{"POST /v1/analyses/chunks", WorkerOnly, "", s.handleAnalyzeChunk},

		{"GET /metrics", Local, "metrics", s.handleMetrics},
		{"GET /healthz", Local, "healthz", s.handleHealthz},
		{"GET /v1/debug/flightrecorder", Local, "flightrecorder", s.handleFlightRecorder},
	}
}

// WithPprof serves net/http/pprof under /debug/pprof/ in front of h.
// Profiling belongs to the process, so cmd/prestored mounts it around
// whichever handler it serves, daemon or coordinator.
func WithPprof(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/pprof/", netpprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", netpprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", netpprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", netpprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", netpprof.Trace)
	mux.Handle("/", h)
	return mux
}
