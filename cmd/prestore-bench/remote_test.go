package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

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
