package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"prestores/internal/bench"
	"prestores/internal/obs"
	"prestores/internal/server"
)

type spanDoc struct {
	TraceEvents []json.RawMessage `json:"traceEvents"`
	Spans       []obs.Span        `json:"spans"`
}

func getSpanDoc(t *testing.T, base, id string) spanDoc {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET spans: status %d: %s", resp.StatusCode, data)
	}
	var doc spanDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("spans artifact is not valid JSON: %v", err)
	}
	return doc
}

func spansNamed(spans []obs.Span, name string) []obs.Span {
	var out []obs.Span
	for _, sp := range spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// TestClusterSpanTreeEndToEnd: a submit through the coordinator with a
// client traceparent yields one merged span tree — the coordinator's
// job root and route span plus the owning shard's spans — all under
// the client's trace ID, with correct parent/child nesting.
func TestClusterSpanTreeEndToEnd(t *testing.T) {
	_, cts, shards := newCluster(t, 2, synth("sp1"))

	const clientTrace = "fedcba9876543210fedcba9876543210"
	const clientSpan = "0102030405060708"
	req, err := http.NewRequest("POST", cts.URL+"/v1/experiments",
		bytes.NewReader([]byte(`{"id":"sp1","quick":true}`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, "00-"+clientTrace+"-"+clientSpan+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	var st server.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	waitFinal(t, cts.URL, st.ID)

	doc := getSpanDoc(t, cts.URL, st.ID)
	services := map[string]bool{}
	for _, sp := range doc.Spans {
		if got := sp.Trace.String(); got != clientTrace {
			t.Fatalf("span %s/%s on trace %s, want the client's %s", sp.Service, sp.Name, got, clientTrace)
		}
		services[sp.Service] = true
	}
	if !services["coordinator"] || !services["prestored"] {
		t.Fatalf("span tree should cover coordinator and worker; got services %v", services)
	}

	// Coordinator root nests under the client span; the shard-side job
	// root nests under the coordinator root (propagated via the
	// traceparent header on the proxied submit).
	var coordRoot, shardRoot *obs.Span
	for i := range doc.Spans {
		sp := &doc.Spans[i]
		if sp.Name != "job" {
			continue
		}
		switch sp.Service {
		case "coordinator":
			coordRoot = sp
		case "prestored":
			shardRoot = sp
		}
	}
	if coordRoot == nil || shardRoot == nil {
		t.Fatalf("missing job roots (coordinator=%v shard=%v) in %+v", coordRoot, shardRoot, doc.Spans)
	}
	if got := coordRoot.Parent.String(); got != clientSpan {
		t.Fatalf("coordinator root parent %s, want client span %s", got, clientSpan)
	}
	if shardRoot.Parent != coordRoot.ID {
		t.Fatalf("shard root parent %s, want coordinator root %s", shardRoot.Parent, coordRoot.ID)
	}
	if len(spansNamed(doc.Spans, "route")) == 0 {
		t.Fatalf("no route span in %+v", doc.Spans)
	}
	for _, name := range []string{"queue.wait", "run"} {
		got := spansNamed(doc.Spans, name)
		if len(got) != 1 {
			t.Fatalf("want exactly one %s span, got %d", name, len(got))
		}
		if got[0].Parent != shardRoot.ID {
			t.Fatalf("%s parent %s, want shard root %s", name, got[0].Parent, shardRoot.ID)
		}
	}
	_ = shards
}

// TestClusterCachedSubmitOwnTrace submits one experiment twice: the
// second submit, answered from the shard's result cache, carries its
// own trace ID, and its span artifact holds only that trace's spans —
// the coordinator's route and job spans — none of the first job's.
func TestClusterCachedSubmitOwnTrace(t *testing.T) {
	_, cts, _ := newCluster(t, 2, synth("e1"))
	first := submitExp(t, cts.URL, "e1")
	waitFinal(t, cts.URL, first.ID)
	second := submitExp(t, cts.URL, "e1")
	if !second.Cached {
		t.Fatalf("repeat submit not a cache hit: %+v", second)
	}
	if second.Trace == "" || second.Trace == first.Trace {
		t.Fatalf("cached submit trace %q; want its own, not %q", second.Trace, first.Trace)
	}
	if st := waitFinal(t, cts.URL, second.ID); st.Trace != second.Trace {
		t.Fatalf("cached job status trace %q; want %q", st.Trace, second.Trace)
	}
	doc := getSpanDoc(t, cts.URL, second.ID)
	names := map[string]int{}
	for _, sp := range doc.Spans {
		if got := sp.Trace.String(); got != second.Trace {
			t.Fatalf("span %s/%s on trace %s; want the cached job's %s", sp.Service, sp.Name, got, second.Trace)
		}
		names[sp.Name]++
	}
	if len(names) != 2 || names["route"] != 1 || names["job"] != 1 {
		t.Fatalf("cached job's spans = %v; want one route and one job span", names)
	}
}

// TestClusterRequeueSpansCoverBothShards kills the shard running a job
// mid-flight and asserts the merged span tree shows both shards under
// one trace ID: a route span naming the dead shard, a requeue span
// naming both, and the survivor's run spans — plus job.requeued in the
// coordinator's flight recorder.
func TestClusterRequeueSpansCoverBothShards(t *testing.T) {
	var attempt atomic.Int64
	firstStarted := make(chan struct{})
	release := make(chan struct{})
	phoenix := bench.Experiment{ID: "phoenix2", Title: "dies once", Paper: "n/a",
		Run: func(ctx context.Context, w io.Writer, _ bool) {
			if attempt.Add(1) == 1 {
				fmt.Fprint(w, "part1\n")
				close(firstStarted)
				select {
				case <-ctx.Done():
				case <-release:
				}
				return
			}
			fmt.Fprint(w, "part1\npart2\n")
		}}
	_, cts, shards := newCluster(t, 2, phoenix)
	t.Cleanup(func() { close(release) })

	st := submitExp(t, cts.URL, "phoenix2")
	resp, err := http.Get(cts.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	readEvent(t, br) // status

	<-firstStarted
	victim := 0
	if shards[1].runs.Load() > 0 {
		victim = 1
	}
	shards[victim].die()

	var final *server.JobStatus
	for final == nil {
		if ev := readEvent(t, br); ev.Event == "done" {
			final = ev.Job
		}
	}
	if final.State != "done" {
		t.Fatalf("final state %q after failover", final.State)
	}

	doc := getSpanDoc(t, cts.URL, st.ID)
	if len(doc.Spans) == 0 {
		t.Fatal("no spans after failover")
	}
	trace := doc.Spans[0].Trace
	for _, sp := range doc.Spans {
		if sp.Trace != trace {
			t.Fatalf("spans split across traces %s and %s", trace, sp.Trace)
		}
	}
	victimURL, survivorURL := shards[victim].ts.URL, shards[1-victim].ts.URL

	routes := spansNamed(doc.Spans, "route")
	if len(routes) == 0 {
		t.Fatal("no route span")
	}
	foundVictimRoute := false
	for _, sp := range routes {
		if sp.Attr("shard") == victimURL {
			foundVictimRoute = true
		}
	}
	if !foundVictimRoute {
		t.Fatalf("no route span naming the dead shard %s in %+v", victimURL, routes)
	}
	requeues := spansNamed(doc.Spans, "requeue")
	if len(requeues) != 1 {
		t.Fatalf("want exactly one requeue span, got %d", len(requeues))
	}
	if requeues[0].Attr("from") != victimURL || requeues[0].Attr("to") != survivorURL {
		t.Fatalf("requeue span from=%q to=%q, want %q -> %q",
			requeues[0].Attr("from"), requeues[0].Attr("to"), victimURL, survivorURL)
	}
	// The survivor's execution is in the same tree (fetched live from
	// the shard that now owns the job).
	if len(spansNamed(doc.Spans, "run")) == 0 {
		t.Fatal("no run span from the surviving shard")
	}

	fresp, err := http.Get(cts.URL + "/v1/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	fdata, err := io.ReadAll(fresp.Body)
	fresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Records []obs.FlightRecord `json:"records"`
	}
	if err := json.Unmarshal(fdata, &dump); err != nil {
		t.Fatalf("flight dump is not valid JSON: %v", err)
	}
	kinds := map[string]bool{}
	for _, r := range dump.Records {
		kinds[r.Kind] = true
	}
	for _, want := range []string{"job.routed", "job.requeued", "job.done"} {
		if !kinds[want] {
			t.Errorf("coordinator flight recorder missing %q; have %v", want, kinds)
		}
	}
}

// TestFederatedMetrics: the coordinator /metrics re-exports every
// daemon family from the whole fleet with a shard label, stays
// parseable by the strict promtext parser, pre-seeds per-shard
// counters at zero, and keeps counters monotonic across scrapes.
func TestFederatedMetrics(t *testing.T) {
	_, cts, shards := newCluster(t, 2, synth("fm1"))

	scrapeParsed := func() map[string]*obs.Family {
		t.Helper()
		resp, err := http.Get(cts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		fams, err := obs.ParseMetrics(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("federated /metrics does not parse: %v\n%s", err, data)
		}
		byName := map[string]*obs.Family{}
		for _, f := range fams {
			if byName[f.Name] != nil {
				t.Fatalf("family %s declared twice", f.Name)
			}
			if f.Type == "" {
				t.Errorf("family %s has no TYPE", f.Name)
			}
			byName[f.Name] = f
		}
		return byName
	}

	before := scrapeParsed()

	// Build info: the coordinator's own gauge plus a federated
	// prestored_build_info series per fleet member.
	if before["prestored_coordinator_build_info"] == nil {
		t.Error("no prestored_coordinator_build_info family")
	}
	bi := before["prestored_build_info"]
	if bi == nil {
		t.Fatal("no federated prestored_build_info family")
	}
	origins := map[string]bool{}
	for _, s := range bi.Samples {
		origins[s.Label("shard")] = true
	}
	for _, want := range []string{"self", shards[0].ts.URL, shards[1].ts.URL} {
		if !origins[want] {
			t.Errorf("prestored_build_info missing origin %q; have %v", want, origins)
		}
	}

	// Pre-seeded per-shard counters: zero-valued series exist before
	// any failure, for every configured shard.
	rq := before["prestored_coordinator_requeued_total"]
	if rq == nil {
		t.Fatal("no prestored_coordinator_requeued_total family before any requeue")
	}
	for _, url := range []string{shards[0].ts.URL, shards[1].ts.URL} {
		found := false
		for _, s := range rq.Samples {
			if s.Label("shard") == url {
				found = true
				if v, _ := s.Float(); v != 0 {
					t.Errorf("requeued_total{shard=%q} = %g before any requeue", url, v)
				}
			}
		}
		if !found {
			t.Errorf("requeued_total not pre-seeded for %q", url)
		}
	}

	st := submitExp(t, cts.URL, "fm1")
	waitFinal(t, cts.URL, st.ID)

	after := scrapeParsed()
	for name, f := range before {
		if f.Type != "counter" || !strings.HasPrefix(name, "prestored_coordinator_") {
			continue
		}
		af := after[name]
		if af == nil {
			t.Errorf("counter family %s vanished", name)
			continue
		}
		for _, s := range f.Samples {
			for _, as := range af.Samples {
				if as.Name != s.Name || !sameLabels(as.Labels, s.Labels) {
					continue
				}
				sv, _ := s.Float()
				av, _ := as.Float()
				if av < sv {
					t.Errorf("counter %s{%v} went backwards: %g -> %g", s.Name, s.Labels, sv, av)
				}
			}
		}
	}

	// The worker that ran the job shows it in its federated series.
	jf := after["prestored_jobs_finished_total"]
	if jf == nil {
		t.Fatal("no federated prestored_jobs_finished_total after a job")
	}
	ran := false
	for _, s := range jf.Samples {
		if v, _ := s.Float(); v > 0 && strings.HasPrefix(s.Label("shard"), "http") {
			ran = true
		}
	}
	if !ran {
		t.Errorf("no worker shard reports a finished job: %+v", jf.Samples)
	}
}

func sameLabels(a, b []obs.Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
