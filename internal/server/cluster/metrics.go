package cluster

import (
	"bytes"
	"context"
	"net/http"
	"sync/atomic"
	"time"

	"prestores/internal/obs"
)

// cmetrics holds the coordinator's counters. Health and job gauges
// are sampled at scrape time.
type cmetrics struct {
	routed       *obs.CounterVec // submits routed to a shard (202 accepted)
	cacheHits    *obs.CounterVec // submits a shard answered from its cache (200)
	requeued     *obs.CounterVec // jobs moved OFF a shard after it was lost
	shardErrors  *obs.CounterVec // calls a shard failed to answer, or answered 503
	probeDowns   *obs.CounterVec // healthy→unhealthy transitions
	chunks       *obs.CounterVec // trace-analysis chunk calls a shard answered
	chunkRetries *obs.CounterVec // chunk calls moved OFF a shard after a failure
	scrapeErrors *obs.CounterVec // federated /metrics scrapes that failed or did not parse

	rejected  *atomic.Int64 // submits refused: no shard accepted
	jobsDone  *atomic.Int64 // proxied jobs observed reaching state done
	streamsUp atomic.Int64  // job streams currently followed
}

// initMetrics registers the coordinator's own families in exposition
// order.
func (c *Coordinator) initMetrics() {
	m, r := &c.m, &c.reg
	r.GaugeVecFunc("prestored_coordinator_build_info",
		"Build metadata for the coordinator binary (value is always 1).",
		[]string{"version", "go"}, func(set func(float64, ...string)) { set(1, obs.Version(), obs.GoVersion()) })

	// Every per-shard counter is pre-seeded with the configured shards:
	// the series exist (at 0) from the very first scrape and never
	// appear, vanish or reset as shards bounce in and out of the ring.
	perShard := func(name, help string) *obs.CounterVec {
		v := r.CounterVec(name, help, "shard")
		for _, s := range c.cfg.Shards {
			v.Seed(s)
		}
		return v
	}
	m.routed = perShard("prestored_coordinator_routed_total",
		"Submits routed to a worker shard and accepted.")
	m.cacheHits = perShard("prestored_coordinator_cache_hits_total",
		"Submits a worker shard answered from its result cache.")
	m.requeued = perShard("prestored_coordinator_requeued_total",
		"Jobs rerouted off a shard after it was lost mid-flight.")
	m.shardErrors = perShard("prestored_coordinator_shard_errors_total",
		"Proxied calls a shard failed to answer (connect failure or timeout) or refused while draining.")
	m.probeDowns = perShard("prestored_coordinator_probe_failures_total",
		"Healthy-to-unhealthy transitions per shard.")
	m.chunks = perShard("prestored_coordinator_chunks_total",
		"Trace-analysis chunk calls answered by a shard.")
	m.chunkRetries = perShard("prestored_coordinator_chunk_retries_total",
		"Chunk calls rerouted off a shard after it failed to answer.")
	m.scrapeErrors = perShard("prestored_coordinator_federation_errors_total",
		"Federated /metrics scrapes that failed to fetch or parse.")
	m.rejected = r.Counter("prestored_coordinator_rejected_total",
		"Submits refused because no shard was healthy.")
	m.jobsDone = r.Counter("prestored_coordinator_jobs_done_total",
		"Proxied jobs observed reaching state done.")

	r.GaugeVecFunc("prestored_coordinator_shard_healthy", "Shard health from the prober (1 healthy, 0 down).",
		[]string{"shard"}, func(set func(float64, ...string)) {
			for i, s := range c.cfg.Shards {
				up := 0.0
				if c.prober.healthy(i) {
					up = 1
				}
				set(up, s)
			}
		})
	r.GaugeFunc("prestored_coordinator_shards", "Configured worker shards.",
		func() float64 { return float64(len(c.cfg.Shards)) })
	r.GaugeFunc("prestored_coordinator_jobs_tracked", "Jobs the coordinator is tracking.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.jobs))
	})
	r.GaugeFunc("prestored_coordinator_streams_active", "Client streams currently proxied.",
		func() float64 { return float64(m.streamsUp.Load()) })
	r.GaugeFunc("prestored_coordinator_span_traces", "Traces currently held in the coordinator span store.",
		func() float64 { return float64(c.spans.Traces()) })
	r.CounterFunc("prestored_coordinator_flight_records_total",
		"Events recorded by the coordinator flight recorder.", c.flight.Recorded)
	r.GaugeFunc("prestored_coordinator_uptime_seconds", "Seconds since the coordinator started.",
		func() float64 { return time.Since(c.start).Seconds() })
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteFamilies(w, append(c.reg.Families(), c.federate(r.Context())...))
}

// federate gathers the daemon families (prestored_*) of the whole
// fleet — the embedded host, read in process, plus each healthy worker
// shard's /metrics page — with a shard label naming the origin ("self"
// for the embedded host, the shard's base URL otherwise). They are
// name-disjoint from the coordinator's own prestored_coordinator_*
// set, so one scrape covers the fleet. Families merge by name, so
// HELP/TYPE appear once per family with every origin's series beneath
// them: Prometheus rejects duplicate family declarations but accepts
// label-disjoint series. A shard page that fails to fetch or parse is
// skipped and counted in prestored_coordinator_federation_errors_total;
// unhealthy shards are skipped silently, since the prober already
// accounts for them and a scrape would only burn the request timeout.
func (c *Coordinator) federate(ctx context.Context) []*obs.Family {
	origins := []string{"self"}
	sources := [][]*obs.Family{c.tuner.MetricFamilies()}
	for i, url := range c.cfg.Shards {
		if !c.prober.healthy(i) {
			continue
		}
		sr, err := c.client.Do(ctx, "GET", url+"/metrics", "", nil)
		if err != nil || sr.Code != http.StatusOK {
			c.m.scrapeErrors.Inc(url)
			continue
		}
		fams, err := obs.ParseMetrics(bytes.NewReader(sr.Body))
		if err != nil {
			c.m.scrapeErrors.Inc(url)
			continue
		}
		origins = append(origins, url)
		sources = append(sources, fams)
	}

	merged := map[string]*obs.Family{}
	var out []*obs.Family
	for i, fams := range sources {
		for _, f := range fams {
			mf := merged[f.Name]
			if mf == nil {
				mf = &obs.Family{Name: f.Name, Help: f.Help, Type: f.Type}
				merged[f.Name] = mf
				out = append(out, mf)
			}
			for _, s := range f.Samples {
				mf.Samples = append(mf.Samples, s.WithLabel("shard", origins[i]))
			}
		}
	}
	return out
}
