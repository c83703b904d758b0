package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"prestores/internal/obs"
	"prestores/internal/server"
)

// sitesAutotune is the autotune request the cluster test drives: the
// sites workload pins {hot: demote, once: clean} as the unique elapsed
// optimum, so the winning plan is known.
const sitesAutotune = `{
  "spec": {
    "version": 1,
    "machine": {"preset": "machine-a"},
    "workload": {"name": "sites", "params": {"once_lines": 2048, "rounds": 8}},
    "policy": {"ops": ["none"], "columns": [{"title": "elapsed", "op": "none", "metric": "elapsed"}]}
  },
  "seed": 7,
  "objective": "elapsed"
}`

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func decodeStatus(t *testing.T, data []byte) server.JobStatus {
	t.Helper()
	var st server.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("decoding job status %s: %v", data, err)
	}
	return st
}

// TestClusterAutotuneMatchesLocalByteForByte submits the same seeded
// autotune request to a standalone daemon and to a two-shard cluster.
// The coordinator runs the search on its embedded host and fans every
// candidate evaluation out to the shards; because evaluation is
// deterministic wherever it runs, the recorded trajectories must be
// byte-identical.
func TestClusterAutotuneMatchesLocalByteForByte(t *testing.T) {
	// Standalone reference daemon.
	local := server.New(server.Config{Workers: 2})
	lts := httptest.NewServer(local.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		local.Shutdown(ctx)
		lts.Close()
	})

	code, data := postRaw(t, lts.URL+"/v1/autotune", sitesAutotune)
	if code != http.StatusAccepted {
		t.Fatalf("local submit: status %d: %s", code, data)
	}
	localSt := decodeStatus(t, data)
	localSt = waitFinal(t, lts.URL, localSt.ID)
	if localSt.State != "done" {
		t.Fatalf("local autotune failed: %+v", localSt)
	}
	code, localTraj := getBody(t, lts.URL+"/v1/jobs/"+localSt.ID+"/trajectory")
	if code != http.StatusOK {
		t.Fatalf("local trajectory: status %d: %s", code, localTraj)
	}

	// The same request through a two-shard cluster.
	_, cts, shards := newCluster(t, 2)
	code, data = postRaw(t, cts.URL+"/v1/autotune", sitesAutotune)
	if code != http.StatusAccepted {
		t.Fatalf("cluster submit: status %d: %s", code, data)
	}
	st := decodeStatus(t, data)
	if strings.HasPrefix(st.ID, "cjob-") {
		t.Fatalf("autotune job got a routed ID %s, want an embedded-host ID", st.ID)
	}
	st = waitFinal(t, cts.URL, st.ID)
	if st.State != "done" {
		t.Fatalf("cluster autotune failed: %+v", st)
	}
	code, clusterTraj := getBody(t, cts.URL+"/v1/jobs/"+st.ID+"/trajectory")
	if code != http.StatusOK {
		t.Fatalf("cluster trajectory: status %d: %s", code, clusterTraj)
	}

	if string(localTraj) != string(clusterTraj) {
		t.Errorf("cluster trajectory differs from local:\n%s\n---\n%s", clusterTraj, localTraj)
	}

	// The candidate evaluations must actually have run on the shards:
	// every routed eval shows up in a shard's per-kind job counters.
	evals := 0
	for _, f := range shards {
		code, m := getBody(t, f.ts.URL+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("shard metrics: status %d", code)
		}
		if strings.Contains(string(m), `kind="eval"`) {
			evals++
		}
	}
	if evals == 0 {
		t.Error("no shard reports eval jobs; candidates did not fan out")
	}

	// The coordinator's metrics carry both its own families and the
	// federated daemon families: the embedded host's autotune counters
	// appear relabeled as shard="self".
	code, m := getBody(t, cts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("coordinator metrics: status %d", code)
	}
	for _, want := range []string{"prestored_coordinator_routed_total", `prestored_autotune_searches_total{shard="self"} 1`} {
		if !strings.Contains(string(m), want) {
			t.Errorf("coordinator /metrics missing %q", want)
		}
	}
}

// TestClusterSearchTraceCoversRoutedEvals: every eval and probe job a
// cluster search routes continues the search's trace, so the search's
// trace ID carries a coordinator route span for each of them.
func TestClusterSearchTraceCoversRoutedEvals(t *testing.T) {
	coord, cts, _ := newCluster(t, 2)
	code, data := postRaw(t, cts.URL+"/v1/autotune", sitesAutotune)
	if code != http.StatusAccepted {
		t.Fatalf("cluster submit: status %d: %s", code, data)
	}
	st := waitFinal(t, cts.URL, decodeStatus(t, data).ID)
	if st.State != "done" {
		t.Fatalf("cluster autotune failed: %+v", st)
	}
	trace, err := obs.ParseTraceID(st.Trace)
	if err != nil {
		t.Fatalf("search trace_id %q: %v", st.Trace, err)
	}
	spans, _ := coord.spans.Spans(trace)
	routes := map[obs.SpanID]int{}
	for _, sp := range spans {
		if sp.Name == "route" {
			routes[sp.Parent]++
		}
	}
	coord.mu.Lock()
	jobs := make([]*cjob, 0, len(coord.jobs))
	for _, j := range coord.jobs {
		jobs = append(jobs, j)
	}
	coord.mu.Unlock()
	if len(jobs) == 0 {
		t.Fatal("the search routed no jobs")
	}
	for _, j := range jobs {
		if j.kind != "eval" && j.kind != "scenario" {
			t.Errorf("search routed a %s job", j.kind)
		}
		if j.sc.Trace != trace {
			t.Errorf("%s job %s is on trace %s, want the search's %s", j.kind, j.id, j.sc.Trace, trace)
		}
		if routes[j.sc.Span] == 0 {
			t.Errorf("no route span for %s job %s in the search's trace", j.kind, j.id)
		}
	}
}
