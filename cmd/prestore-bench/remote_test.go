package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"prestores/internal/bench"
	"prestores/internal/server"
)

// The sweep's policy sits on the shared job-API client: these tests
// drive it through the CLI's functions against scripted servers.

// testClient is the sweep's client with a near-instant backoff so
// retry tests run in milliseconds.
func testClient() *server.Client {
	c := newClient()
	c.Backoff = server.Backoff{Base: time.Millisecond, Cap: 5 * time.Millisecond}
	return c
}

func writeEvent(w http.ResponseWriter, ev server.StreamEvent) {
	json.NewEncoder(w).Encode(ev)
}

// TestSubmitJobBacksOffThrough429 proves the client's 429 retry loop
// converges once the queue drains and counts every attempt (so the backoff is
// actually pacing, not spinning).
func TestSubmitJobBacksOffThrough429(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 3 {
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"job queue full"}`)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"job-1","state":"queued"}`)
	}))
	defer ts.Close()

	st, err := submitRemote(context.Background(), testClient(), ts.URL, "e", true)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "job-1" {
		t.Fatalf("job handle = %+v", st)
	}
	if n := calls.Load(); n != 4 {
		t.Fatalf("server saw %d submits, want 4 (3×429 + accept)", n)
	}
}

// TestSubmitJobHonorsContextBudget proves a permanently full queue
// does not retry forever: the context deadline is the total budget.
func TestSubmitJobHonorsContextBudget(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := submitRemote(ctx, testClient(), ts.URL, "e", true)
	if err == nil || ctx.Err() == nil {
		t.Fatalf("submit against a stuck queue returned %v, want context deadline", err)
	}
}

// TestStreamRemoteReconnectsWithOffset is the mid-job disconnect fix:
// the daemon drops the stream after half the output; the client must
// reconnect asking for the bytes it has not consumed, and the final
// writer content must be exact with no duplicated bytes.
func TestStreamRemoteReconnectsWithOffset(t *testing.T) {
	const part1, part2 = "part1\n", "part2\n"
	var attempts atomic.Int64
	var gotOffset atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/stream") {
			t.Errorf("unexpected path %s", r.URL.Path)
			w.WriteHeader(http.StatusNotFound)
			return
		}
		switch attempts.Add(1) {
		case 1:
			writeEvent(w, server.StreamEvent{Event: "status", Job: &server.JobStatus{ID: "job-1", State: "running"}})
			writeEvent(w, server.StreamEvent{Event: "output", Data: part1})
			// connection ends without a done event: transport loss
		default:
			gotOffset.Store(r.URL.Query().Get("offset"))
			writeEvent(w, server.StreamEvent{Event: "output", Data: part2})
			writeEvent(w, server.StreamEvent{Event: "done", Job: &server.JobStatus{
				ID: "job-1", State: "done",
				Result: &bench.Result{ID: "e", Output: part1 + part2},
			}})
		}
	}))
	defer ts.Close()

	var out bytes.Buffer
	res, err := streamRemote(context.Background(), testClient(), &out, ts.URL, "job-1")
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != part1+part2 {
		t.Fatalf("client wrote %q, want %q (no loss, no duplication)", out.String(), part1+part2)
	}
	if res.Output != part1+part2 {
		t.Fatalf("result output = %q", res.Output)
	}
	if n := attempts.Load(); n != 2 {
		t.Fatalf("server saw %d stream attaches, want 2", n)
	}
	if off := gotOffset.Load(); off != fmt.Sprint(len(part1)) {
		t.Fatalf("reconnect asked for offset %v, want %d", off, len(part1))
	}
}

// TestStreamRemoteBoundedReconnects proves the reconnect loop gives up
// after its budget when the daemon makes no progress.
func TestStreamRemoteBoundedReconnects(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		// 200 with no events at all: ends without done, no progress.
	}))
	defer ts.Close()

	var out bytes.Buffer
	_, err := streamRemote(context.Background(), testClient(), &out, ts.URL, "job-1")
	if err == nil || !strings.Contains(err.Error(), "reconnect attempts") {
		t.Fatalf("fruitless stream returned %v, want bounded-reconnects error", err)
	}
	if n := attempts.Load(); n != maxStreamReconnects+1 {
		t.Fatalf("server saw %d attaches, want %d", n, maxStreamReconnects+1)
	}
}

// TestStreamRemoteTerminalHTTPErrorDoesNotRetry: a definitive answer
// (404 unknown job) must fail fast, not burn the reconnect budget.
func TestStreamRemoteTerminalHTTPErrorDoesNotRetry(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"unknown job"}`)
	}))
	defer ts.Close()

	var out bytes.Buffer
	_, err := streamRemote(context.Background(), testClient(), &out, ts.URL, "job-9")
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("404 stream returned %v, want status error", err)
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("server saw %d attaches for a 404, want 1", n)
	}
}

// TestCancelRemoteRunsConcurrently proves aborting a wide sweep costs
// one slow round-trip, not one per outstanding job.
func TestCancelRemoteRunsConcurrently(t *testing.T) {
	const jobs = 8
	const delay = 200 * time.Millisecond
	var deletes atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != "DELETE" {
			t.Errorf("unexpected method %s", r.Method)
		}
		time.Sleep(delay)
		deletes.Add(1)
		fmt.Fprint(w, `{"state":"cancelled"}`)
	}))
	defer ts.Close()

	handles := make([]handle, jobs)
	for i := range handles {
		handles[i].id = fmt.Sprintf("job-%d", i+1)
	}
	start := time.Now()
	cancelRemote(testClient(), ts.URL, handles)
	elapsed := time.Since(start)
	if n := deletes.Load(); n != jobs {
		t.Fatalf("%d DELETEs arrived, want %d", n, jobs)
	}
	if elapsed > jobs*delay/2 {
		t.Fatalf("cancelRemote took %v for %d jobs (serial would be ~%v); not concurrent", elapsed, jobs, jobs*delay)
	}
}
