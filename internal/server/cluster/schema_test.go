package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"prestores/internal/bench"
	"prestores/internal/obs"
	"prestores/internal/server"
)

// exposition reduces a /metrics page to its schema: one "name TYPE
// label,label" line per family, in exposition order, with the union of
// the family's label names sorted.
func exposition(t *testing.T, url string) []string {
	t.Helper()
	code, data := getBody(t, url+"/metrics")
	if code != 200 {
		t.Fatalf("GET %s/metrics: status %d", url, code)
	}
	fams, err := obs.ParseMetrics(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s/metrics does not parse: %v", url, err)
	}
	var out []string
	for _, f := range fams {
		seen := map[string]bool{}
		var names []string
		for _, s := range f.Samples {
			for _, l := range s.Labels {
				if !seen[l.Name] {
					seen[l.Name] = true
					names = append(names, l.Name)
				}
			}
		}
		sort.Strings(names)
		out = append(out, fmt.Sprintf("%s %s %s", f.Name, f.Type, strings.Join(names, ",")))
	}
	return out
}

func checkSchema(t *testing.T, what string, got, want []string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s exposition schema changed\n--- got ---\n%s\n--- want ---\n%s",
			what, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// daemonSchema is a daemon's /metrics (checkpoints enabled) after one
// experiment job.
var daemonSchema = []string{
	"prestored_build_info gauge go,version",
	"prestored_jobs_completed_total counter ",
	"prestored_jobs_failed_total counter ",
	"prestored_jobs_cancelled_total counter ",
	"prestored_jobs_rejected_total counter ",
	"prestored_cache_hits_total counter ",
	"prestored_cache_misses_total counter ",
	"prestored_coalesced_total counter ",
	"prestored_autotune_searches_total counter ",
	"prestored_autotune_evals_total counter ",
	"prestored_autotune_converged_total counter ",
	"prestored_trace_uploads_total counter ",
	"prestored_trace_upload_bytes_total counter ",
	"prestored_trace_analyses_total counter ",
	"prestored_trace_chunks_total counter ",
	"prestored_trace_store_bytes gauge ",
	"prestored_trace_stored gauge ",
	"prestored_checkpoint_hits_total counter ",
	"prestored_checkpoint_misses_total counter ",
	"prestored_checkpoint_store_bytes gauge ",
	"prestored_jobs_finished_total counter kind,state",
	"prestored_job_queue_wait_seconds histogram kind,le",
	"prestored_job_run_seconds histogram kind,le",
	"prestored_jobs_running gauge ",
	"prestored_queue_depth gauge ",
	"prestored_queue_capacity gauge ",
	"prestored_workers gauge ",
	"prestored_inflight_keys gauge ",
	"prestored_cache_entries gauge ",
	"prestored_uptime_seconds gauge ",
	"prestored_span_traces gauge ",
	"prestored_flight_records_total counter ",
	"prestored_cache_hit_ratio gauge ",
	"prestored_sim_ops_total counter ",
	"prestored_sim_ops_per_second gauge ",
}

// coordinatorSchema is a two-shard coordinator's /metrics after one
// routed experiment job: its own families, then the federated daemon
// families in first-appearance order (the embedded host first).
var coordinatorSchema = []string{
	"prestored_coordinator_build_info gauge go,version",
	"prestored_coordinator_routed_total counter shard",
	"prestored_coordinator_cache_hits_total counter shard",
	"prestored_coordinator_requeued_total counter shard",
	"prestored_coordinator_shard_errors_total counter shard",
	"prestored_coordinator_probe_failures_total counter shard",
	"prestored_coordinator_chunks_total counter shard",
	"prestored_coordinator_chunk_retries_total counter shard",
	"prestored_coordinator_federation_errors_total counter shard",
	"prestored_coordinator_rejected_total counter ",
	"prestored_coordinator_jobs_done_total counter ",
	"prestored_coordinator_shard_healthy gauge shard",
	"prestored_coordinator_shards gauge ",
	"prestored_coordinator_jobs_tracked gauge ",
	"prestored_coordinator_streams_active gauge ",
	"prestored_coordinator_span_traces gauge ",
	"prestored_coordinator_flight_records_total counter ",
	"prestored_coordinator_uptime_seconds gauge ",
	"prestored_build_info gauge go,shard,version",
	"prestored_jobs_completed_total counter shard",
	"prestored_jobs_failed_total counter shard",
	"prestored_jobs_cancelled_total counter shard",
	"prestored_jobs_rejected_total counter shard",
	"prestored_cache_hits_total counter shard",
	"prestored_cache_misses_total counter shard",
	"prestored_coalesced_total counter shard",
	"prestored_autotune_searches_total counter shard",
	"prestored_autotune_evals_total counter shard",
	"prestored_autotune_converged_total counter shard",
	"prestored_trace_uploads_total counter shard",
	"prestored_trace_upload_bytes_total counter shard",
	"prestored_trace_analyses_total counter shard",
	"prestored_trace_chunks_total counter shard",
	"prestored_trace_store_bytes gauge shard",
	"prestored_trace_stored gauge shard",
	"prestored_checkpoint_hits_total counter shard",
	"prestored_checkpoint_misses_total counter shard",
	"prestored_checkpoint_store_bytes gauge shard",
	"prestored_jobs_running gauge shard",
	"prestored_queue_depth gauge shard",
	"prestored_queue_capacity gauge shard",
	"prestored_workers gauge shard",
	"prestored_inflight_keys gauge shard",
	"prestored_cache_entries gauge shard",
	"prestored_uptime_seconds gauge shard",
	"prestored_span_traces gauge shard",
	"prestored_flight_records_total counter shard",
	"prestored_cache_hit_ratio gauge shard",
	"prestored_sim_ops_total counter shard",
	"prestored_sim_ops_per_second gauge shard",
	"prestored_jobs_finished_total counter kind,shard,state",
	"prestored_job_queue_wait_seconds histogram kind,le,shard",
	"prestored_job_run_seconds histogram kind,le,shard",
}

// TestMetricsExpositionSchema pins the family names, types and label
// names of a daemon's and a coordinator's /metrics, so dashboards and
// alerts written against either keep working across refactors of the
// metrics code.
func TestMetricsExpositionSchema(t *testing.T) {
	s := server.New(server.Config{Workers: 1, Lookup: func(id string) (bench.Experiment, bool) {
		return synth(id), id == "schema"
	}})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		ts.Close()
	})
	waitFinal(t, ts.URL, submitExp(t, ts.URL, "schema").ID)
	checkSchema(t, "daemon", exposition(t, ts.URL), daemonSchema)

	_, cts, _ := newCluster(t, 2, synth("schema"))
	waitFinal(t, cts.URL, submitExp(t, cts.URL, "schema").ID)
	checkSchema(t, "coordinator", exposition(t, cts.URL), coordinatorSchema)
}
