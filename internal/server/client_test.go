package server

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
)

// fastClient is a client with a near-instant backoff so retry tests
// run in milliseconds.
func fastClient() *Client {
	return NewClient(5*time.Second, nil, Backoff{Base: time.Millisecond, Cap: 5 * time.Millisecond})
}

func writeEvent(w http.ResponseWriter, ev StreamEvent) {
	json.NewEncoder(w).Encode(ev)
}

// TestFollowReconnectsWithOffset is the mid-job disconnect fix:
// the daemon drops the stream after half the output; the client must
// reconnect asking for the bytes it has not consumed, and the final
// writer content must be exact with no duplicated bytes.
func TestFollowReconnectsWithOffset(t *testing.T) {
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
			writeEvent(w, StreamEvent{Event: "status", Job: &JobStatus{ID: "job-1", State: "running"}})
			writeEvent(w, StreamEvent{Event: "output", Data: part1})
			// connection ends without a done event: transport loss
		default:
			gotOffset.Store(r.URL.Query().Get("offset"))
			writeEvent(w, StreamEvent{Event: "output", Data: part2})
			writeEvent(w, StreamEvent{Event: "done", Job: &JobStatus{
				ID: "job-1", State: "done",
				Result: &bench.Result{ID: "e", Output: part1 + part2},
			}})
		}
	}))
	defer ts.Close()

	var out bytes.Buffer
	st, err := fastClient().Follow(context.Background(), ts.URL, "job-1", &out)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != part1+part2 {
		t.Fatalf("client wrote %q, want %q (no loss, no duplication)", out.String(), part1+part2)
	}
	if st.Result.Output != part1+part2 {
		t.Fatalf("result output = %q", st.Result.Output)
	}
	if n := attempts.Load(); n != 2 {
		t.Fatalf("server saw %d stream attaches, want 2", n)
	}
	if off := gotOffset.Load(); off != fmt.Sprint(len(part1)) {
		t.Fatalf("reconnect asked for offset %v, want %d", off, len(part1))
	}
}

// TestFollowBoundedReconnects proves the reconnect loop gives up
// after its budget when the daemon makes no progress.
func TestFollowBoundedReconnects(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		// 200 with no events at all: ends without done, no progress.
	}))
	defer ts.Close()

	var out bytes.Buffer
	_, err := fastClient().Follow(context.Background(), ts.URL, "job-1", &out)
	if err == nil || !strings.Contains(err.Error(), "reconnect attempts") {
		t.Fatalf("fruitless stream returned %v, want bounded-reconnects error", err)
	}
	if n := attempts.Load(); n != maxFollowReconnects+1 {
		t.Fatalf("server saw %d attaches, want %d", n, maxFollowReconnects+1)
	}
}

// TestFollowTerminalHTTPErrorDoesNotRetry: a definitive answer
// (404 unknown job) must fail fast, not burn the reconnect budget.
func TestFollowTerminalHTTPErrorDoesNotRetry(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"unknown job"}`)
	}))
	defer ts.Close()

	var out bytes.Buffer
	_, err := fastClient().Follow(context.Background(), ts.URL, "job-9", &out)
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("404 stream returned %v, want status error", err)
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("server saw %d attaches for a 404, want 1", n)
	}
}
