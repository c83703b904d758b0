package server

import (
	"net/http"
	"sync/atomic"
	"time"

	"prestores/internal/obs"
	"prestores/internal/sim"
)

// durBuckets are the histogram upper bounds (seconds) shared by the
// queue-wait and run-duration families: exponential from 5 ms to 5 min,
// wide enough for both a cache-warm quick experiment and a full sweep.
var durBuckets = []float64{
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// metrics holds the daemon's counters and histograms. Gauges derived
// from scheduler state (queue depth, cache size) are registered as
// functions and sampled at scrape time.
type metrics struct {
	reg obs.Registry

	jobsDone, jobsFailed, jobsCancelled *atomic.Int64
	cacheHits, cacheMisses              *atomic.Int64
	coalesced, rejected                 *atomic.Int64
	running                             atomic.Int64

	// Autotuning-search counters (POST /v1/autotune).
	autotuneSearches, autotuneEvals, autotuneConverged *atomic.Int64

	// Trace-pipeline counters (POST /v1/traces, /v1/analyses).
	traceUploads, traceUploadBytes, traceAnalyses, traceChunks *atomic.Int64

	// Per-kind scheduling latency and run duration, and per-kind/state
	// completion counts.
	queueWait, runDur *obs.HistogramVec
	finished          *obs.CounterVec
}

// initMetrics registers the daemon's families in exposition order.
func (s *Server) initMetrics() {
	m, r := &s.m, &s.m.reg
	startOps := sim.RetiredOps()

	// Build identity as the conventional constant-1 info gauge: joins
	// let dashboards slice any series by the build that produced it.
	r.GaugeVecFunc("prestored_build_info", "Build identity of this daemon; constant 1.",
		[]string{"version", "go"}, func(set func(float64, ...string)) { set(1, version, obs.GoVersion()) })

	m.jobsDone = r.Counter("prestored_jobs_completed_total", "Jobs that finished successfully.")
	m.jobsFailed = r.Counter("prestored_jobs_failed_total", "Jobs that finished with an error (panic or timeout).")
	m.jobsCancelled = r.Counter("prestored_jobs_cancelled_total", "Jobs cancelled before completion.")
	m.rejected = r.Counter("prestored_jobs_rejected_total", "Submits rejected with 429 because the queue was full.")
	m.cacheHits = r.Counter("prestored_cache_hits_total", "Submits answered from the result cache.")
	m.cacheMisses = r.Counter("prestored_cache_misses_total", "Submits that enqueued new work.")
	m.coalesced = r.Counter("prestored_coalesced_total", "Submits attached to an identical in-flight job.")
	m.autotuneSearches = r.Counter("prestored_autotune_searches_total", "Autotuning searches that completed successfully.")
	m.autotuneEvals = r.Counter("prestored_autotune_evals_total", "Candidate plan evaluations performed by autotuning searches.")
	m.autotuneConverged = r.Counter("prestored_autotune_converged_total", "Autotuning searches that reached a local optimum within budget.")
	m.traceUploads = r.Counter("prestored_trace_uploads_total", "Trace recordings accepted into the store (one-shot or committed resumable uploads).")
	m.traceUploadBytes = r.Counter("prestored_trace_upload_bytes_total", "Encoded bytes of accepted trace recordings.")
	m.traceAnalyses = r.Counter("prestored_trace_analyses_total", "Chunked trace analyses that completed successfully.")
	m.traceChunks = r.Counter("prestored_trace_chunks_total", "Trace chunks processed by analysis passes (local or on behalf of a coordinator).")
	r.GaugeFunc("prestored_trace_store_bytes", "Bytes held by the trace store (stored traces plus open upload buffers).",
		func() float64 { b, _ := s.traces.usage(); return float64(b) })
	r.GaugeFunc("prestored_trace_stored", "Recordings currently in the trace store.",
		func() float64 { _, n := s.traces.usage(); return float64(n) })

	// The checkpoint families exist only when checkpointing is enabled.
	if ck := s.ck; ck != nil {
		r.CounterFunc("prestored_checkpoint_hits_total", "Warm-state checkpoint lookups answered from the store.", ck.Hits)
		r.CounterFunc("prestored_checkpoint_misses_total", "Warm-state checkpoint lookups that loaded cold.", ck.Misses)
		r.GaugeFunc("prestored_checkpoint_store_bytes", "Bytes of warm-state checkpoints held in memory.",
			func() float64 { return float64(ck.Bytes()) })
	}

	m.finished = r.CounterVec("prestored_jobs_finished_total", "Jobs reaching a final state, by kind and state.", "kind", "state")
	m.queueWait = r.HistogramVec("prestored_job_queue_wait_seconds",
		"Time jobs spent queued before a worker picked them up, by kind.", durBuckets, "kind")
	m.runDur = r.HistogramVec("prestored_job_run_seconds", "Wall-clock run duration of jobs, by kind.", durBuckets, "kind")

	locked := func(f func() int) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(f())
		}
	}
	r.GaugeFunc("prestored_jobs_running", "Jobs currently executing on a worker.", func() float64 { return float64(m.running.Load()) })
	r.GaugeFunc("prestored_queue_depth", "Jobs waiting in the queue.", locked(func() int { return len(s.queue) }))
	r.GaugeFunc("prestored_queue_capacity", "Bound on queued jobs; full queue rejects with 429.", func() float64 { return float64(s.cfg.QueueDepth) })
	r.GaugeFunc("prestored_workers", "Worker-pool size.", func() float64 { return float64(s.cfg.Workers) })
	r.GaugeFunc("prestored_inflight_keys", "Distinct cache keys currently queued or running.", locked(func() int { return len(s.inflight) }))
	r.GaugeFunc("prestored_cache_entries", "Results held in the cache.", locked(func() int { return len(s.cache) }))
	r.GaugeFunc("prestored_uptime_seconds", "Seconds since the daemon started.", func() float64 { return time.Since(s.start).Seconds() })
	r.GaugeFunc("prestored_span_traces", "Traces currently held by the span store.", func() float64 { return float64(s.spans.Traces()) })
	r.CounterFunc("prestored_flight_records_total", "Entries appended to the flight recorder since start.", s.flight.Recorded)
	r.GaugeFunc("prestored_cache_hit_ratio", "cache_hits / (cache_hits + cache_misses) since start.", func() float64 {
		hits, misses := m.cacheHits.Load(), m.cacheMisses.Load()
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	})
	ops := func() uint64 { return sim.RetiredOps() - startOps }
	r.CounterFunc("prestored_sim_ops_total", "Simulated operations retired since the daemon started.", ops)
	r.GaugeFunc("prestored_sim_ops_per_second", "Average simulated-operation throughput since start.", func() float64 {
		if sec := time.Since(s.start).Seconds(); sec > 0 {
			return float64(ops()) / sec
		}
		return 0
	})
}

// MetricFamilies samples the daemon's metric families — what GET
// /metrics renders. A coordinator federates its embedded host through
// this in process.
func (s *Server) MetricFamilies() []*obs.Family { return s.m.reg.Families() }

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteFamilies(w, s.MetricFamilies())
}
