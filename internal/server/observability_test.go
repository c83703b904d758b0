package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"prestores/internal/dirtbuster"
)

func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// histBuckets extracts one histogram series' cumulative bucket counts in
// exposition order, plus its _count and _sum.
func histBuckets(t *testing.T, text, name, kind string) (buckets []int64, count int64, sum float64) {
	t.Helper()
	bucketRe := regexp.MustCompile(`^` + name + `_bucket\{kind="` + kind + `",le="([^"]+)"\} (\d+)$`)
	count = -1
	sum = -1
	for _, line := range strings.Split(text, "\n") {
		if m := bucketRe.FindStringSubmatch(line); m != nil {
			v, err := strconv.ParseInt(m[2], 10, 64)
			if err != nil {
				t.Fatalf("bucket value %q: %v", line, err)
			}
			buckets = append(buckets, v)
			continue
		}
		if rest, ok := strings.CutPrefix(line, name+`_count{kind="`+kind+`"} `); ok {
			v, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				t.Fatalf("count %q: %v", line, err)
			}
			count = v
		}
		if rest, ok := strings.CutPrefix(line, name+`_sum{kind="`+kind+`"} `); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("sum %q: %v", line, err)
			}
			sum = v
		}
	}
	return buckets, count, sum
}

// checkHistogram asserts the Prometheus invariants of one series:
// cumulative buckets are monotonic, the +Inf bucket equals _count, and
// _sum is consistent with at least one observation.
func checkHistogram(t *testing.T, text, name, kind string, wantCount int64) {
	t.Helper()
	buckets, count, sum := histBuckets(t, text, name, kind)
	if len(buckets) != len(durBuckets)+1 {
		t.Fatalf("%s{kind=%q}: %d buckets, want %d:\n%s", name, kind, len(buckets), len(durBuckets)+1, text)
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] < buckets[i-1] {
			t.Fatalf("%s{kind=%q}: bucket %d (%d) < bucket %d (%d): not cumulative",
				name, kind, i, buckets[i], i-1, buckets[i-1])
		}
	}
	if count != wantCount {
		t.Fatalf("%s_count{kind=%q} = %d, want %d", name, kind, count, wantCount)
	}
	if inf := buckets[len(buckets)-1]; inf != count {
		t.Fatalf("%s{kind=%q}: +Inf bucket %d != count %d", name, kind, inf, count)
	}
	if sum < 0 {
		t.Fatalf("%s_sum{kind=%q} missing or negative: %g", name, kind, sum)
	}
}

func TestMetricsHistogramsPerKind(t *testing.T) {
	e := synthExperiment("h1", "histogram rows")
	_, ts := newTestServer(t, Config{
		Workers:   1,
		Lookup:    lookupOf(e),
		Workloads: func(bool) []dirtbuster.Workload { return []dirtbuster.Workload{synthWorkload()} },
	})

	// A mixed workload: two experiment runs (the second is submitted
	// under a different quick flag so it is not a cache hit) and one
	// DirtBuster analysis.
	st := submit(t, ts.URL, map[string]any{"id": "h1", "quick": true})
	waitFinal(t, ts.URL, st.ID)
	st = submit(t, ts.URL, map[string]any{"id": "h1", "quick": false})
	waitFinal(t, ts.URL, st.ID)
	code, data := postJSON(t, ts.URL+"/v1/dirtbuster", map[string]any{"workload": "synthwl", "quick": true})
	if code != http.StatusAccepted {
		t.Fatalf("dirtbuster submit: status %d: %s", code, data)
	}
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	waitFinal(t, ts.URL, st.ID)

	text := scrapeMetrics(t, ts.URL)
	for _, name := range []string{"prestored_job_queue_wait_seconds", "prestored_job_run_seconds"} {
		if !strings.Contains(text, "# TYPE "+name+" histogram") {
			t.Fatalf("metrics missing histogram family %s:\n%s", name, text)
		}
		checkHistogram(t, text, name, "experiment", 2)
		checkHistogram(t, text, name, "dirtbuster", 1)
	}
	for _, want := range []string{
		`prestored_jobs_finished_total{kind="dirtbuster",state="done"} 1`,
		`prestored_jobs_finished_total{kind="experiment",state="done"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// telemetryScenario is customScenario plus a telemetry block: the job
// must record a timeline and a line report as artifacts.
const telemetryScenario = `{
  "version": 1,
  "name": "telemetry-pmem",
  "title": "listing1 with telemetry",
  "machine": {"preset": "machine-a"},
  "workload": {"name": "listing1",
    "params": {"elem_size": 512, "threads": 1, "volume": 1048576, "reread": false, "seed": 5}},
  "policy": {
    "ops": ["none"],
    "columns": [{"title": "amp", "op": "none", "metric": "write_amp", "format": "f2"}]
  },
  "telemetry": {"timeline": true, "line_report": true}
}`

func getArtifact(t *testing.T, base, id, name string) (int, []byte, string) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header.Get("Content-Type")
}

func TestScenarioTelemetryArtifacts(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	code, data := postRaw(t, ts.URL+"/v1/scenarios",
		`{"spec": `+telemetryScenario+`, "quick": true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, data)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	st = waitFinal(t, ts.URL, st.ID)
	if st.State != "done" {
		t.Fatalf("job state %q: %+v", st.State, st)
	}

	code, body, ctype := getArtifact(t, ts.URL, st.ID, "timeline")
	if code != http.StatusOK {
		t.Fatalf("GET timeline: status %d: %s", code, body)
	}
	if ctype != "application/json" {
		t.Fatalf("timeline content-type %q", ctype)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("timeline has no events")
	}

	code, body, _ = getArtifact(t, ts.URL, st.ID, "linereport")
	if code != http.StatusOK {
		t.Fatalf("GET linereport: status %d: %s", code, body)
	}
	var rep struct {
		Lines []json.RawMessage `json:"lines"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("line report is not valid JSON: %v", err)
	}
	if len(rep.Lines) == 0 {
		t.Fatal("line report tracked no lines")
	}
	// The job's human-readable output also carries the text rendering.
	if !strings.Contains(st.Result.Output, "cache-line attribution report") {
		t.Errorf("job output missing text line report:\n%s", st.Result.Output)
	}
}

// TestEvalTelemetryArtifacts: an eval whose spec carries a telemetry
// block is recorded like a scenario job, so its line report is served
// as an artifact, while its output stays exactly the metrics JSON line
// an unrecorded eval of the same point produces.
func TestEvalTelemetryArtifacts(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	eval := func(spec string) JobStatus {
		t.Helper()
		code, data := postRaw(t, ts.URL+"/v1/eval", `{"spec": `+spec+`, "quick": true}`)
		if code != http.StatusAccepted {
			t.Fatalf("eval submit: status %d: %s", code, data)
		}
		var st JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		st = waitFinal(t, ts.URL, st.ID)
		if st.State != "done" || st.Result == nil {
			t.Fatalf("eval job did not finish cleanly: %+v", st)
		}
		return st
	}
	lineOnly := strings.Replace(telemetryScenario,
		`"telemetry": {"timeline": true, "line_report": true}`,
		`"telemetry": {"line_report": true}`, 1)
	recorded := eval(lineOnly)

	code, body, _ := getArtifact(t, ts.URL, recorded.ID, "linereport")
	if code != http.StatusOK {
		t.Fatalf("GET linereport: status %d: %s", code, body)
	}
	var rep struct {
		Lines []json.RawMessage `json:"lines"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("line report is not valid JSON: %v", err)
	}
	if len(rep.Lines) == 0 {
		t.Fatal("line report tracked no lines")
	}
	if code, body, _ := getArtifact(t, ts.URL, recorded.ID, "timeline"); code != http.StatusNotFound {
		t.Fatalf("GET timeline of a line-report-only eval: status %d, want 404: %s", code, body)
	}

	plain := eval(strings.Replace(telemetryScenario,
		`,
  "telemetry": {"timeline": true, "line_report": true}`, "", 1))
	if recorded.Result.Output != plain.Result.Output {
		t.Fatalf("recorded eval output %q, want the unrecorded eval's %q",
			recorded.Result.Output, plain.Result.Output)
	}
	var m map[string]float64
	if err := json.Unmarshal([]byte(recorded.Result.Output), &m); err != nil || len(m) == 0 ||
		strings.Count(recorded.Result.Output, "\n") != 1 {
		t.Fatalf("eval output is not one metrics JSON line (%v): %q", err, recorded.Result.Output)
	}
}

func TestArtifactErrorPaths(t *testing.T) {
	e := synthExperiment("a1", "no artifacts here")
	_, ts := newTestServer(t, Config{Workers: 1, Lookup: lookupOf(e)})

	// Unknown job.
	code, _, _ := getArtifact(t, ts.URL, "job-999", "timeline")
	if code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", code)
	}

	// A finished job that never recorded telemetry.
	st := submit(t, ts.URL, map[string]any{"id": "a1", "quick": true})
	waitFinal(t, ts.URL, st.ID)
	code, body, _ := getArtifact(t, ts.URL, st.ID, "timeline")
	if code != http.StatusNotFound {
		t.Fatalf("no-telemetry job: status %d, want 404: %s", code, body)
	}
	if !strings.Contains(string(body), "telemetry block") {
		t.Fatalf("error should point at the telemetry block: %s", body)
	}

	// A telemetry spec that enables nothing is rejected at submit.
	code, body = postRaw(t, ts.URL+"/v1/scenarios",
		`{"spec": `+strings.Replace(telemetryScenario,
			`"telemetry": {"timeline": true, "line_report": true}`,
			`"telemetry": {}`, 1)+`, "quick": true}`)
	if code != http.StatusBadRequest {
		t.Fatalf("empty telemetry block: status %d, want 400: %s", code, body)
	}
}

// TestPprofGatedByConfig: a daemon's handler serves no profiling
// surface; WithPprof (cmd/prestored -pprof) mounts it in front.
// cluster's TestPprofMountedAroundCoordinator is the coordinator case.
func TestPprofGatedByConfig(t *testing.T) {
	s, tsOff := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(tsOff.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof off: status %d, want 404", resp.StatusCode)
	}

	tsOn := httptest.NewServer(WithPprof(s.Handler()))
	defer tsOn.Close()
	resp, err = http.Get(tsOn.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof on: status %d, want 200", resp.StatusCode)
	}
}
