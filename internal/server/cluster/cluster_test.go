package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"prestores/internal/bench"
	"prestores/internal/server"
)

// killSwitch simulates a worker daemon dying without unbinding its
// port: once flipped, every new request is aborted mid-connection.
// Combined with CloseClientConnections it severs live streams too.
// The handler is swapped atomically: health probes reach it while a
// test wraps it.
type killSwitch struct {
	dead atomic.Bool
	h    atomic.Pointer[http.Handler]
}

func newKillSwitch(h http.Handler) *killSwitch {
	k := &killSwitch{}
	k.h.Store(&h)
	return k
}

func (k *killSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if k.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	(*k.h.Load()).ServeHTTP(w, r)
}

// shardFixture is one worker daemon under test.
type shardFixture struct {
	srv  *server.Server
	ts   *httptest.Server
	kill *killSwitch
	runs atomic.Int64 // experiments executed on this shard
}

func (f *shardFixture) die() {
	f.kill.dead.Store(true)
	f.ts.CloseClientConnections()
}

// newCluster starts n worker shards sharing the experiment set and a
// coordinator over them, all torn down via t.Cleanup.
func newCluster(t *testing.T, n int, exps ...bench.Experiment) (*Coordinator, *httptest.Server, []*shardFixture) {
	t.Helper()
	return newClusterWith(t, n, nil, exps...)
}

// newClusterWith is newCluster with a hook to adjust the coordinator's
// Config before it starts.
func newClusterWith(t *testing.T, n int, tune func(*Config), exps ...bench.Experiment) (*Coordinator, *httptest.Server, []*shardFixture) {
	t.Helper()
	byID := map[string]bench.Experiment{}
	for _, e := range exps {
		byID[e.ID] = e
	}
	shards := make([]*shardFixture, n)
	urls := make([]string, n)
	for i := range shards {
		f := &shardFixture{}
		lookup := func(id string) (bench.Experiment, bool) {
			e, ok := byID[id]
			if !ok {
				return bench.Experiment{}, false
			}
			orig := e.Run
			e.Run = func(ctx context.Context, w io.Writer, quick bool) {
				f.runs.Add(1)
				orig(ctx, w, quick)
			}
			return e, true
		}
		f.srv = server.New(server.Config{Workers: 2, Lookup: lookup})
		f.kill = newKillSwitch(f.srv.Handler())
		f.ts = httptest.NewServer(f.kill)
		shards[i] = f
		urls[i] = f.ts.URL
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			f.srv.Shutdown(ctx)
			f.kill.dead.Store(true)
			f.ts.Close()
		})
	}
	cfg := Config{
		Shards:         urls,
		ProbeInterval:  50 * time.Millisecond,
		ProbeTimeout:   time.Second,
		RequestTimeout: 5 * time.Second,
		Backoff:        server.Backoff{Base: 2 * time.Millisecond, Cap: 20 * time.Millisecond},
	}
	if tune != nil {
		tune(&cfg)
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		coord.Shutdown(context.Background())
		cts.Close()
	})
	return coord, cts, shards
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
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

func submitExp(t *testing.T, base, id string) server.JobStatus {
	t.Helper()
	code, data := postJSON(t, base+"/v1/experiments", map[string]any{"id": id, "quick": true})
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit %s: status %d: %s", id, code, data)
	}
	var st server.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitFinal(t *testing.T, base, id string) server.JobStatus {
	t.Helper()
	// Generous upper bound only: the race detector slows the autotune
	// search well past what the plain tests need.
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st server.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case "done", "failed", "cancelled":
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func synth(id string) bench.Experiment {
	return bench.Experiment{ID: id, Title: "synthetic " + id, Paper: "n/a",
		Run: func(_ context.Context, w io.Writer, quick bool) {
			fmt.Fprintf(w, "%s body quick=%v\n", id, quick)
		}}
}

// TestClusterRoutingAndDistributedCache proves the two cache halves of
// the tentpole: identical submits land on the same shard (the second
// is answered from that shard's cache without a second execution), and
// distinct keys spread across the fleet.
func TestClusterRoutingAndDistributedCache(t *testing.T) {
	var exps []bench.Experiment
	for i := 0; i < 16; i++ {
		exps = append(exps, synth(fmt.Sprintf("e%d", i)))
	}
	_, cts, shards := newCluster(t, 2, exps...)

	// Same body twice: second submit must be a distributed cache hit.
	first := submitExp(t, cts.URL, "e0")
	st := waitFinal(t, cts.URL, first.ID)
	if st.State != "done" || st.Result == nil {
		t.Fatalf("first run: %+v", st)
	}
	code, data := postJSON(t, cts.URL+"/v1/experiments", map[string]any{"id": "e0", "quick": true})
	if code != http.StatusOK {
		t.Fatalf("repeat submit: status %d (want 200 cached): %s", code, data)
	}
	var second server.JobStatus
	if err := json.Unmarshal(data, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.Result == nil || second.Result.Output != st.Result.Output {
		t.Fatalf("repeat submit not a cache hit with identical output: %+v", second)
	}
	if total := shards[0].runs.Load() + shards[1].runs.Load(); total != 1 {
		t.Fatalf("e0 executed %d times across the fleet, want exactly 1", total)
	}

	// Distinct keys spread over both shards.
	var ids []string
	for i := 1; i < 16; i++ {
		ids = append(ids, submitExp(t, cts.URL, fmt.Sprintf("e%d", i)).ID)
	}
	for _, id := range ids {
		if st := waitFinal(t, cts.URL, id); st.State != "done" {
			t.Fatalf("job %s: %+v", id, st)
		}
	}
	if shards[0].runs.Load() == 0 || shards[1].runs.Load() == 0 {
		t.Fatalf("16 keys all routed to one shard: %d vs %d",
			shards[0].runs.Load(), shards[1].runs.Load())
	}
}

// readEvent reads one NDJSON event from a live stream.
func readEvent(t *testing.T, br *bufio.Reader) server.StreamEvent {
	t.Helper()
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	var ev server.StreamEvent
	if err := json.Unmarshal(line, &ev); err != nil {
		t.Fatalf("bad stream line %q: %v", line, err)
	}
	return ev
}

// TestClusterShardDeathRequeuesByteIdentical is the failover
// acceptance test: a job's shard dies mid-run with half the output
// already streamed to the client; the coordinator requeues the job to
// the surviving shard and the client receives exactly the bytes a
// single healthy daemon would have produced — no loss, no duplication.
func TestClusterShardDeathRequeuesByteIdentical(t *testing.T) {
	// The guarded harness prepends an experiment header; the body is
	// what Run writes.
	const fullOutput = "\n=== phoenix: dies once ===\npaper: n/a\npart1\npart2\n"
	var attempt atomic.Int64
	firstStarted := make(chan struct{})
	release := make(chan struct{})
	phoenix := bench.Experiment{ID: "phoenix", Title: "dies once", Paper: "n/a",
		Run: func(ctx context.Context, w io.Writer, _ bool) {
			if attempt.Add(1) == 1 {
				fmt.Fprint(w, "part1\n")
				close(firstStarted)
				select { // parked at an iteration boundary until cancelled
				case <-ctx.Done():
				case <-release:
				}
				return
			}
			fmt.Fprint(w, "part1\npart2\n")
		}}
	coord, cts, shards := newCluster(t, 2, phoenix)
	t.Cleanup(func() { close(release) }) // unblock shard A before shutdown cleanup

	st := submitExp(t, cts.URL, "phoenix")
	resp, err := http.Get(cts.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)

	if ev := readEvent(t, br); ev.Event != "status" {
		t.Fatalf("first event = %q, want status", ev.Event)
	}
	// Collect output until the first half has been streamed.
	var got strings.Builder
	for !strings.HasSuffix(got.String(), "part1\n") {
		ev := readEvent(t, br)
		if ev.Event != "output" {
			t.Fatalf("event = %q while waiting for part1, want output", ev.Event)
		}
		got.WriteString(ev.Data)
	}

	// Kill the shard that is running the job, mid-stream.
	<-firstStarted
	victim := 0
	if shards[1].runs.Load() > 0 {
		victim = 1
	}
	shards[victim].die()

	// The coordinator must requeue to the survivor and resume the
	// stream at the forwarded offset.
	var final *server.JobStatus
	for final == nil {
		ev := readEvent(t, br)
		switch ev.Event {
		case "output":
			got.WriteString(ev.Data)
		case "done":
			final = ev.Job
		}
	}
	if final.State != "done" || final.Result == nil {
		t.Fatalf("final status after failover: %+v", final)
	}
	if final.ID != st.ID {
		t.Fatalf("done event job ID = %q, want coordinator ID %q", final.ID, st.ID)
	}
	if got.String() != fullOutput {
		t.Fatalf("client received %q across failover, want %q", got.String(), fullOutput)
	}
	if final.Result.Output != fullOutput {
		t.Fatalf("result output = %q, want %q", final.Result.Output, fullOutput)
	}
	if n := attempt.Load(); n != 2 {
		t.Fatalf("experiment ran %d times, want 2 (original + requeue)", n)
	}
	if n := shards[1-victim].runs.Load(); n != 1 {
		t.Fatalf("survivor ran %d jobs, want 1", n)
	}

	// The failover shows up in the coordinator's metrics.
	mresp, err := http.Get(cts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(mdata)
	for _, want := range []string{
		"prestored_coordinator_requeued_total",
		"prestored_coordinator_routed_total",
		"prestored_coordinator_shard_healthy",
		"prestored_coordinator_jobs_done_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("coordinator metrics missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, fmt.Sprintf("prestored_coordinator_requeued_total{shard=%q} 1", shards[victim].ts.URL)) {
		t.Errorf("requeue not attributed to dead shard:\n%s", text)
	}

	// Polling the job after failover serves the stored terminal status.
	if st := waitFinal(t, cts.URL, st.ID); st.State != "done" || st.Result.Output != fullOutput {
		t.Fatalf("status after failover: %+v", st)
	}
	_ = coord
}

// TestClusterStatusPollSurvivesShardDeath exercises the requeue path
// through GET /v1/jobs/{id} (no stream attached): the poller sees
// queued again after the loss, then done with full output.
func TestClusterStatusPollSurvivesShardDeath(t *testing.T) {
	var attempt atomic.Int64
	firstStarted := make(chan struct{})
	release := make(chan struct{})
	e := bench.Experiment{ID: "pollme", Title: "dies once", Paper: "n/a",
		Run: func(ctx context.Context, w io.Writer, _ bool) {
			if attempt.Add(1) == 1 {
				close(firstStarted)
				select {
				case <-ctx.Done():
				case <-release:
				}
				return
			}
			fmt.Fprintln(w, "poll body")
		}}
	_, cts, shards := newCluster(t, 2, e)
	t.Cleanup(func() { close(release) })

	st := submitExp(t, cts.URL, "pollme")
	<-firstStarted
	victim := 0
	if shards[1].runs.Load() > 0 {
		victim = 1
	}
	shards[victim].die()

	final := waitFinal(t, cts.URL, st.ID)
	if final.State != "done" || final.Result == nil || !strings.HasSuffix(final.Result.Output, "poll body\n") {
		t.Fatalf("job after shard death: %+v", final)
	}
	if n := attempt.Load(); n != 2 {
		t.Fatalf("experiment ran %d times, want 2", n)
	}
}

// TestClusterBadStreamOffsetRoutesNothing pins that the coordinator,
// like a daemon, refuses a ?stream=1 submit with a malformed ?offset
// before routing it: no coordinator job, and no shard job or queue
// entry.
func TestClusterBadStreamOffsetRoutesNothing(t *testing.T) {
	c, cts, shards := newCluster(t, 2, synth("e1"))
	code, data := postJSON(t, cts.URL+"/v1/experiments?stream=1&offset=bogus", map[string]any{"id": "e1", "quick": true})
	if code != http.StatusBadRequest || !strings.Contains(string(data), "bad offset") {
		t.Fatalf("bad offset submit: status %d: %s (want 400, bad offset)", code, data)
	}
	c.mu.Lock()
	jobs := len(c.jobs)
	c.mu.Unlock()
	if jobs != 0 {
		t.Errorf("the coordinator holds %d jobs after the refused submit, want 0", jobs)
	}
	for i, f := range shards {
		resp, err := http.Get(f.ts.URL + "/v1/jobs/job-1")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("shard %d: GET job-1 = %d, want 404 (no job routed)", i, resp.StatusCode)
		}
		resp, err = http.Get(f.ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		metrics, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(metrics), "\nprestored_queue_depth 0\n") {
			t.Errorf("shard %d: queue depth not 0 after the refused submit", i)
		}
	}
	if st := submitExp(t, cts.URL, "e1"); st.ID != "cjob-1" {
		t.Errorf("next submit got %s, want cjob-1", st.ID)
	}
}

func TestClusterHealthzAndPassthrough(t *testing.T) {
	_, cts, shards := newCluster(t, 2, synth("h1"))

	hz, err := http.Get(cts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hz.Body)
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK || !strings.Contains(string(body), "2/2") {
		t.Fatalf("healthz: %d %q", hz.StatusCode, body)
	}

	// Listings are answered by the embedded host, in process.
	lr, err := http.Get(cts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	ldata, _ := io.ReadAll(lr.Body)
	lr.Body.Close()
	if lr.StatusCode != http.StatusOK {
		t.Fatalf("listing: %d %s", lr.StatusCode, ldata)
	}

	// Unknown jobs are 404s, bad offsets 400s.
	if resp, _ := http.Get(cts.URL + "/v1/jobs/cjob-999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}
	st := submitExp(t, cts.URL, "h1")
	waitFinal(t, cts.URL, st.ID)
	if resp, _ := http.Get(cts.URL + "/v1/jobs/" + st.ID + "/stream?offset=-1"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative offset: %d", resp.StatusCode)
	}

	// With the whole fleet dead, submits are refused and health fails.
	shards[0].die()
	shards[1].die()
	deadline := time.Now().Add(5 * time.Second)
	for {
		hz, err := http.Get(cts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		hz.Body.Close()
		if hz.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz still ok with every shard dead")
		}
		time.Sleep(10 * time.Millisecond)
	}
	code, data := postJSON(t, cts.URL+"/v1/experiments", map[string]any{"id": "h1", "quick": true})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit with fleet down: %d %s", code, data)
	}
}

// TestClusterCancelProxies proves DELETE reaches the owning shard.
func TestClusterCancelProxies(t *testing.T) {
	started := make(chan struct{})
	e := bench.Experiment{ID: "victim", Title: "cancellable", Paper: "n/a",
		Run: func(ctx context.Context, w io.Writer, _ bool) {
			close(started)
			<-ctx.Done()
		}}
	_, cts, _ := newCluster(t, 2, e)

	st := submitExp(t, cts.URL, "victim")
	<-started
	req, _ := http.NewRequest("DELETE", cts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if final := waitFinal(t, cts.URL, st.ID); final.State != "cancelled" {
		t.Fatalf("cancelled job state = %q", final.State)
	}
}

func TestRouteKeyCanonicalization(t *testing.T) {
	a, err := routeKey("experiment", []byte(`{"id":"fig3","quick":true}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := routeKey("experiment", []byte("{ \"quick\": true,\n  \"id\": \"fig3\" }"))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("semantically identical bodies routed differently:\n%s\n%s", a, b)
	}
	c, _ := routeKey("experiment", []byte(`{"id":"fig3","quick":false}`))
	if a == c {
		t.Error("different bodies produced the same routing key")
	}
	d, _ := routeKey("scenario", []byte(`{"id":"fig3","quick":true}`))
	if a == d {
		t.Error("different kinds produced the same routing key")
	}
	// Large integers survive canonicalization undamaged.
	big, err := routeKey("trace", []byte(`{"pm_base":1099511627776}`))
	if err != nil || big == "" {
		t.Fatalf("large-number body: %v", err)
	}
	if _, err := routeKey("experiment", []byte(`{not json`)); err == nil {
		t.Error("malformed body accepted")
	}
}
