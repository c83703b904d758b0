package server

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
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
	"prestores/internal/dirtbuster"
	"prestores/internal/obs"
	"prestores/internal/sim"
)

// synthExperiment is a fast fake experiment: prints body, no simulation.
func synthExperiment(id, body string) bench.Experiment {
	return bench.Experiment{
		ID: id, Title: "synthetic " + id, Paper: "n/a",
		Run: func(_ context.Context, w io.Writer, quick bool) {
			fmt.Fprintf(w, "%s quick=%v\n", body, quick)
		},
	}
}

// lookupOf builds a Config.Lookup over the given experiments.
func lookupOf(exps ...bench.Experiment) func(string) (bench.Experiment, bool) {
	m := map[string]bench.Experiment{}
	for _, e := range exps {
		m[e.ID] = e
	}
	return func(id string) (bench.Experiment, bool) { e, ok := m[id]; return e, ok }
}

// synthWorkload is a tiny DirtBuster-analyzable workload: a sequential
// never-re-read writer, cheap enough for unit tests.
func synthWorkload() dirtbuster.Workload {
	return dirtbuster.Workload{
		Name:       "synthwl",
		NewMachine: sim.MachineA,
		Run: func(m *sim.Machine) {
			c := m.Core(0)
			c.PushFunc("synthwl.write")
			buf := make([]byte, 1024)
			for i := uint64(0); i < 300; i++ {
				c.Write(1<<40+i*1024, buf)
			}
			c.PopFunc()
		},
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	})
	return s, ts
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

func getJob(t *testing.T, base, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitFinal polls a job until it reaches a final state.
func waitFinal(t *testing.T, base, id string) JobStatus {
	t.Helper()
	// Generous upper bound only: the race detector slows the autotune
	// search well past what the plain tests need.
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := getJob(t, base, id)
		switch st.State {
		case "done", "failed", "cancelled":
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 60s", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func submit(t *testing.T, base string, body any) JobStatus {
	t.Helper()
	code, data := postJSON(t, base+"/v1/experiments", body)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: status %d: %s", code, data)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestExperimentJobMatchesRunOne(t *testing.T) {
	e := synthExperiment("e1", "hello rows")
	_, ts := newTestServer(t, Config{Workers: 2, Lookup: lookupOf(e)})

	st := submit(t, ts.URL, map[string]any{"id": "e1", "quick": true})
	if st.State != "queued" && st.State != "running" {
		t.Fatalf("fresh submit state = %q", st.State)
	}
	st = waitFinal(t, ts.URL, st.ID)
	if st.State != "done" || st.Result == nil {
		t.Fatalf("job did not finish cleanly: %+v", st)
	}

	var want bytes.Buffer
	if err := bench.RunOne(context.Background(), &want, e, true); err != nil {
		t.Fatal(err)
	}
	if st.Result.Output != want.String() {
		t.Fatalf("server output differs from RunOne:\n got: %q\nwant: %q", st.Result.Output, want.String())
	}
	if st.Result.WallTime <= 0 {
		t.Fatalf("missing wall time: %+v", st.Result)
	}
}

func TestCacheHitSkipsSecondRun(t *testing.T) {
	var runs atomic.Int64
	e := bench.Experiment{ID: "counted", Title: "counts runs", Paper: "n/a",
		Run: func(_ context.Context, w io.Writer, _ bool) {
			runs.Add(1)
			fmt.Fprintln(w, "counted body")
		}}
	_, ts := newTestServer(t, Config{Workers: 1, Lookup: lookupOf(e)})

	first := submit(t, ts.URL, map[string]any{"id": "counted", "quick": true})
	first = waitFinal(t, ts.URL, first.ID)
	if first.State != "done" {
		t.Fatalf("first run: %+v", first)
	}

	code, data := postJSON(t, ts.URL+"/v1/experiments", map[string]any{"id": "counted", "quick": true})
	if code != http.StatusOK {
		t.Fatalf("cached submit: status %d (want 200): %s", code, data)
	}
	var second JobStatus
	if err := json.Unmarshal(data, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.Result == nil {
		t.Fatalf("second submit not served from cache: %+v", second)
	}
	if second.Result.Output != first.Result.Output {
		t.Fatalf("cached output differs:\n got: %q\nwant: %q", second.Result.Output, first.Result.Output)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("experiment ran %d times, want 1", n)
	}

	// A different spec (quick=false) is a different cache key.
	third := submit(t, ts.URL, map[string]any{"id": "counted", "quick": false})
	if third.Cached {
		t.Fatalf("different spec served from cache: %+v", third)
	}
	waitFinal(t, ts.URL, third.ID)
	if n := runs.Load(); n != 2 {
		t.Fatalf("experiment ran %d times after distinct spec, want 2", n)
	}
}

func TestCoalesceConcurrentIdenticalSubmits(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	e := bench.Experiment{ID: "slow", Title: "holds its worker", Paper: "n/a",
		Run: func(ctx context.Context, w io.Writer, _ bool) {
			close(started)
			select {
			case <-release:
				fmt.Fprintln(w, "slow body")
			case <-ctx.Done():
			}
		}}
	_, ts := newTestServer(t, Config{Workers: 1, Lookup: lookupOf(e)})

	first := submit(t, ts.URL, map[string]any{"id": "slow", "quick": true})
	<-started
	second := submit(t, ts.URL, map[string]any{"id": "slow", "quick": true})
	if !second.Coalesced || second.ID != first.ID {
		t.Fatalf("identical in-flight submit not coalesced: first=%+v second=%+v", first, second)
	}
	close(release)
	st := waitFinal(t, ts.URL, first.ID)
	if st.State != "done" || !strings.Contains(st.Result.Output, "slow body") {
		t.Fatalf("coalesced job result: %+v", st)
	}
}

func TestQueueFullRejectsWith429(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	blocker := func(id string) bench.Experiment {
		return bench.Experiment{ID: id, Title: "blocker " + id, Paper: "n/a",
			Run: func(ctx context.Context, w io.Writer, _ bool) {
				started <- struct{}{}
				select {
				case <-release:
				case <-ctx.Done():
				}
			}}
	}
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1,
		Lookup: lookupOf(blocker("b1"), blocker("b2"), blocker("b3")),
	})

	first := submit(t, ts.URL, map[string]any{"id": "b1", "quick": true})
	<-started // b1 occupies the only worker; the queue is empty
	second := submit(t, ts.URL, map[string]any{"id": "b2", "quick": true})
	code, data := postJSON(t, ts.URL+"/v1/experiments", map[string]any{"id": "b3", "quick": true})
	if code != http.StatusTooManyRequests {
		t.Fatalf("submit to full queue: status %d (want 429): %s", code, data)
	}
	if !strings.Contains(string(data), "queue full") {
		t.Fatalf("429 body: %s", data)
	}
	close(release)
	waitFinal(t, ts.URL, first.ID)
	waitFinal(t, ts.URL, second.ID)
}

// TestBadStreamOffsetQueuesNothing pins that a ?stream=1 submit with a
// malformed ?offset is refused before a job exists: a watched job whose
// stream never attaches would run for nobody. With the only worker
// busy, a leaked job would sit in the queue under the next job ID.
func TestBadStreamOffsetQueuesNothing(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	blocker := bench.Experiment{ID: "b1", Title: "blocker", Paper: "n/a",
		Run: func(ctx context.Context, w io.Writer, _ bool) {
			started <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
			}
		}}
	s, ts := newTestServer(t, Config{Workers: 1, Lookup: lookupOf(blocker, synthExperiment("e1", "rows"))})
	first := submit(t, ts.URL, map[string]any{"id": "b1", "quick": true})
	<-started
	depth := len(s.queue)

	code, data := postJSON(t, ts.URL+"/v1/experiments?stream=1&offset=bogus", map[string]any{"id": "e1", "quick": true})
	if code != http.StatusBadRequest || !strings.Contains(string(data), "bad offset") {
		t.Fatalf("bad offset submit: status %d: %s (want 400, bad offset)", code, data)
	}
	if got := len(s.queue); got != depth {
		t.Errorf("queue depth %d after the refused submit, want %d", got, depth)
	}
	if s.job("job-2") != nil {
		t.Error("the refused submit created job-2")
	}
	close(release)
	waitFinal(t, ts.URL, first.ID)
	if st := submit(t, ts.URL, map[string]any{"id": "e1", "quick": true}); st.ID != "job-2" {
		t.Errorf("next submit got %s, want job-2", st.ID)
	}
}

// readEvents decodes a full NDJSON stream.
func readEvents(t *testing.T, r io.Reader) []StreamEvent {
	t.Helper()
	var evs []StreamEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return evs
}

func TestStreamDeliversOutputAndResult(t *testing.T) {
	e := synthExperiment("es", "streamed rows")
	_, ts := newTestServer(t, Config{Workers: 1, Lookup: lookupOf(e)})

	body, _ := json.Marshal(map[string]any{"id": "es", "quick": true})
	resp, err := http.Post(ts.URL+"/v1/experiments?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type = %q", ct)
	}
	evs := readEvents(t, resp.Body)
	if len(evs) < 3 || evs[0].Event != "status" || evs[len(evs)-1].Event != "done" {
		t.Fatalf("stream shape wrong: %+v", evs)
	}
	var streamed strings.Builder
	for _, ev := range evs {
		if ev.Event == "output" {
			streamed.WriteString(ev.Data)
		}
	}
	final := evs[len(evs)-1]
	if final.Job == nil || final.Job.State != "done" || final.Job.Result == nil {
		t.Fatalf("done event malformed: %+v", final)
	}
	var want bytes.Buffer
	bench.RunOne(context.Background(), &want, e, true)
	if streamed.String() != want.String() {
		t.Fatalf("streamed output differs from RunOne:\n got: %q\nwant: %q", streamed.String(), want.String())
	}
	if final.Job.Result.Output != want.String() {
		t.Fatalf("final result output differs: %q", final.Job.Result.Output)
	}
}

// TestStreamOffsetReplay proves ?offset=N resumes a stream at byte N
// of the job's output — the reconnect contract the remote client and
// the cluster coordinator rely on to never duplicate output bytes.
func TestStreamOffsetReplay(t *testing.T) {
	e := synthExperiment("eo", "offset rows")
	_, ts := newTestServer(t, Config{Workers: 1, Lookup: lookupOf(e)})

	st := submit(t, ts.URL, map[string]any{"id": "eo", "quick": true})
	st = waitFinal(t, ts.URL, st.ID)
	full := st.Result.Output
	if len(full) < 4 {
		t.Fatalf("output too short to split: %q", full)
	}
	cut := len(full) / 2

	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/stream?offset=%d", ts.URL, st.ID, cut))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var replayed strings.Builder
	for _, ev := range readEvents(t, resp.Body) {
		if ev.Event == "output" {
			replayed.WriteString(ev.Data)
		}
	}
	if replayed.String() != full[cut:] {
		t.Fatalf("offset %d replayed %q, want %q", cut, replayed.String(), full[cut:])
	}

	// An offset at (or past) the end replays nothing but still
	// delivers the done event.
	resp2, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/stream?offset=%d", ts.URL, st.ID, len(full)+10))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	evs := readEvents(t, resp2.Body)
	for _, ev := range evs {
		if ev.Event == "output" {
			t.Fatalf("past-the-end offset replayed output: %+v", ev)
		}
	}
	if evs[len(evs)-1].Event != "done" {
		t.Fatalf("stream did not finish with done: %+v", evs)
	}

	// Bad offsets are rejected before the stream starts.
	for _, bad := range []string{"-1", "x"} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream?offset=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("offset=%s: status %d (want 400)", bad, resp.StatusCode)
		}
	}
}

// TestStreamDisconnectCancelsJob proves a hung-up client stops the
// simulation: the job's context is cancelled, the run function returns
// (no leaked worker), and the job lands in state cancelled.
func TestStreamDisconnectCancelsJob(t *testing.T) {
	started := make(chan struct{})
	returned := make(chan struct{})
	e := bench.Experiment{ID: "eb", Title: "runs until cancelled", Paper: "n/a",
		Run: func(ctx context.Context, w io.Writer, _ bool) {
			fmt.Fprintln(w, "begin")
			close(started)
			<-ctx.Done() // a sweep loop parked at an iteration boundary
			close(returned)
		}}
	_, ts := newTestServer(t, Config{Workers: 1, Lookup: lookupOf(e, synthExperiment("after", "worker is free"))})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body, _ := json.Marshal(map[string]any{"id": "eb", "quick": true})
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/experiments?stream=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read the status event to learn the job ID, then hang up.
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var ev StreamEvent
	if err := json.Unmarshal(line, &ev); err != nil || ev.Job == nil {
		t.Fatalf("first stream line %q: %v", line, err)
	}
	<-started
	cancel()

	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("experiment still running 10s after client disconnect (leaked worker)")
	}
	st := waitFinal(t, ts.URL, ev.Job.ID)
	if st.State != "cancelled" {
		t.Fatalf("abandoned job state = %q, want cancelled", st.State)
	}
	// The worker is free again: an unrelated job completes.
	st = submit(t, ts.URL, map[string]any{"id": "after", "quick": true})
	if st = waitFinal(t, ts.URL, st.ID); st.State != "done" {
		t.Fatalf("job after disconnect: %+v", st)
	}
}

func TestCancelEndpoint(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	running := bench.Experiment{ID: "run", Title: "running victim", Paper: "n/a",
		Run: func(ctx context.Context, w io.Writer, _ bool) {
			close(started)
			select {
			case <-release:
			case <-ctx.Done():
			}
		}}
	queued := synthExperiment("queued", "never ran")
	_, ts := newTestServer(t, Config{Workers: 1, Lookup: lookupOf(running, queued)})

	first := submit(t, ts.URL, map[string]any{"id": "run", "quick": true})
	<-started
	second := submit(t, ts.URL, map[string]any{"id": "queued", "quick": true})

	del := func(id string) JobStatus {
		req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	// Cancelling a queued job finalizes it without ever running it.
	if st := del(second.ID); st.State != "cancelled" {
		t.Fatalf("cancelled queued job state = %q", st.State)
	}
	// Cancelling the running job stops it cooperatively.
	del(first.ID)
	if st := waitFinal(t, ts.URL, first.ID); st.State != "cancelled" {
		t.Fatalf("cancelled running job state = %q", st.State)
	}
}

func TestMetricsAndHealthz(t *testing.T) {
	e := synthExperiment("m1", "metric rows")
	_, ts := newTestServer(t, Config{Workers: 1, Lookup: lookupOf(e)})

	st := submit(t, ts.URL, map[string]any{"id": "m1", "quick": true})
	waitFinal(t, ts.URL, st.ID)
	submit(t, ts.URL, map[string]any{"id": "m1", "quick": true}) // cache hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	text := string(data)
	for _, want := range []string{
		"prestored_jobs_completed_total 1",
		"prestored_cache_hits_total 1",
		"prestored_cache_misses_total 1",
		"prestored_cache_hit_ratio 0.5",
		"prestored_queue_capacity",
		"prestored_jobs_running 0",
		"prestored_sim_ops_total",
		"prestored_sim_ops_per_second",
		// The warm-state checkpoint store is on by default; its family
		// renders even before any KV sweep touches it.
		"prestored_checkpoint_hits_total 0",
		"prestored_checkpoint_misses_total 0",
		"prestored_checkpoint_store_bytes 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", hz.StatusCode)
	}
}

func TestShutdownDrainsAndRefuses(t *testing.T) {
	e := synthExperiment("d1", "drained")
	s, ts := newTestServer(t, Config{Workers: 1, Lookup: lookupOf(e)})

	st := submit(t, ts.URL, map[string]any{"id": "d1", "quick": true})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain shutdown: %v", err)
	}
	// The in-flight job completed rather than being killed.
	if got := waitFinal(t, ts.URL, st.ID); got.State != "done" {
		t.Fatalf("job state after drain = %q", got.State)
	}
	// New submits are refused, health reports draining.
	code, _ := postJSON(t, ts.URL+"/v1/experiments", map[string]any{"id": "d1", "quick": true})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown: status %d (want 503)", code)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after shutdown: status %d (want 503)", hz.StatusCode)
	}
}

func TestShutdownDeadlineCancelsStuckJobs(t *testing.T) {
	e := bench.Experiment{ID: "stuck", Title: "waits for cancellation", Paper: "n/a",
		Run: func(ctx context.Context, w io.Writer, _ bool) {
			<-ctx.Done()
		}}
	s := New(Config{Workers: 1, Lookup: lookupOf(e)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st := submit(t, ts.URL, map[string]any{"id": "stuck", "quick": true})
	waitRunning := time.Now().Add(5 * time.Second)
	for getJob(t, ts.URL, st.ID).State != "running" {
		if time.Now().After(waitRunning) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("shutdown returned %v, want deadline exceeded", err)
	}
	if got := getJob(t, ts.URL, st.ID); got.State != "cancelled" {
		t.Fatalf("stuck job state after forced shutdown = %q", got.State)
	}
}

func TestDirtbusterEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:   1,
		Workloads: func(bool) []dirtbuster.Workload { return []dirtbuster.Workload{synthWorkload()} },
	})
	code, data := postJSON(t, ts.URL+"/v1/dirtbuster", map[string]any{"workload": "synthwl", "quick": true})
	if code != http.StatusAccepted {
		t.Fatalf("dirtbuster submit: status %d: %s", code, data)
	}
	var st JobStatus
	json.Unmarshal(data, &st)
	st = waitFinal(t, ts.URL, st.ID)
	if st.State != "done" || !strings.Contains(st.Result.Output, "synthwl") {
		t.Fatalf("dirtbuster job: %+v", st)
	}

	code, data = postJSON(t, ts.URL+"/v1/dirtbuster", map[string]any{"workload": "nope", "quick": true})
	if code != http.StatusNotFound {
		t.Fatalf("unknown workload: status %d: %s", code, data)
	}
}

func TestTraceEndpointModes(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:   1,
		Workloads: func(bool) []dirtbuster.Workload { return []dirtbuster.Workload{synthWorkload()} },
	})
	// The SHA-256 of each mode's output pins its bytes; the values were
	// recorded from the whole-buffer implementation the chunked one
	// replaced.
	for mode, want := range map[string]struct{ substr, sha string }{
		"report":     {"synthwl.write", "f48b6d16534327b8f2efff1f9f9d643fd2e9c256c5f0fd9b6ec40518d946cdcd"},
		"pmcheck":    {"pmcheck:", "e6b8a7ddaf49b088984b9ddebc93758f4979515d7f4dc5cb1e0995a939183502"},
		"dirtbuster": {"synthwl", "279355eb4649e4ceb522d6b7ef7165586b98666c3fb15a99e3ea8620b9fb55a2"},
		"":           {"synthwl", "279355eb4649e4ceb522d6b7ef7165586b98666c3fb15a99e3ea8620b9fb55a2"}, // default dirtbuster report
	} {
		code, data := postJSON(t, ts.URL+"/v1/trace", map[string]any{"workload": "synthwl", "mode": mode})
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("trace mode %q: status %d: %s", mode, code, data)
		}
		var st JobStatus
		json.Unmarshal(data, &st)
		st = waitFinal(t, ts.URL, st.ID)
		if st.State != "done" || !strings.Contains(st.Result.Output, want.substr) {
			t.Fatalf("trace mode %q: %+v", mode, st)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(st.Result.Output))); got != want.sha {
			t.Errorf("trace mode %q: output sha %s, want %s:\n%s", mode, got, want.sha, st.Result.Output)
		}
	}
	// An unknown mode fails the job, not the daemon.
	code, data := postJSON(t, ts.URL+"/v1/trace", map[string]any{"workload": "synthwl", "mode": "bogus"})
	if code != http.StatusAccepted {
		t.Fatalf("bogus mode submit: status %d: %s", code, data)
	}
	var st JobStatus
	json.Unmarshal(data, &st)
	st = waitFinal(t, ts.URL, st.ID)
	if st.State != "failed" || !strings.Contains(st.Error, "unknown trace mode") {
		t.Fatalf("bogus trace mode job: %+v", st)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, _ := postJSON(t, ts.URL+"/v1/experiments", map[string]any{"id": "no-such-experiment"})
	if code != http.StatusNotFound {
		t.Fatalf("unknown experiment: status %d (want 404)", code)
	}
	resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d (want 400)", resp.StatusCode)
	}
	if _, err := http.Get(ts.URL + "/v1/jobs/job-999"); err != nil {
		t.Fatal(err)
	}
	code, _ = postJSON(t, ts.URL+"/v1/trace", map[string]any{"workload": "listing1", "mode": "report", "pm_base": 1 << 40})
	if code != http.StatusAccepted && code != http.StatusOK && code != http.StatusNotFound {
		t.Fatalf("trace submit: status %d", code)
	}
}

func TestListEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var entries []struct{ ID, Title, Paper string }
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("experiment listing empty")
	}
	reg, err := http.Get(ts.URL + "/v1/registry")
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Body.Close()
	var names struct {
		DirtBuster []string `json:"dirtbuster_workloads"`
	}
	if err := json.NewDecoder(reg.Body).Decode(&names); err != nil {
		t.Fatal(err)
	}
	if len(names.DirtBuster) == 0 {
		t.Fatal("workload listing empty")
	}
}

// TestFinishedJobCountedBeforeVisible pins the order of a job's last
// two steps: its completion counter moves before its final state is
// published, so a client that sees "done" or "cancelled" and then
// scrapes /metrics always finds the job counted. The test holds the
// scheduler lock, which finalize and finalizeAbandoned need after
// publishing the state, so a counter still pending behind that lock
// reads as zero.
func TestFinishedJobCountedBeforeVisible(t *testing.T) {
	s := New(Config{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	release := make(chan struct{})
	blocker := func(context.Context, *job) bench.Result { <-release; return bench.Result{ID: "x"} }
	_, running, err := s.submit("test", "running", true, obs.SpanContext{}, blocker)
	if err != nil {
		t.Fatal(err)
	}
	_, queued, err := s.submit("test", "queued", true, obs.SpanContext{}, blocker)
	if err != nil {
		t.Fatal(err)
	}
	for running.status().State != stateRunning.String() {
		time.Sleep(time.Millisecond)
	}

	waitFor := func(j *job, state string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for j.status().State != state {
			if time.Now().After(deadline) {
				t.Fatalf("job %s never became %s (state %s)", j.id, state, j.status().State)
			}
			time.Sleep(time.Millisecond)
		}
	}

	s.mu.Lock()
	go s.cancelJob(queued)
	waitFor(queued, stateCancelled.String())
	cancelled := s.m.jobsCancelled.Load()
	close(release)
	waitFor(running, stateDone.String())
	done := s.m.jobsDone.Load()
	s.mu.Unlock()

	if cancelled != 1 {
		t.Errorf("queued job visible as cancelled with prestored_jobs_cancelled_total = %d; want 1", cancelled)
	}
	if done != 1 {
		t.Errorf("job visible as done with prestored_jobs_completed_total = %d; want 1", done)
	}
}
