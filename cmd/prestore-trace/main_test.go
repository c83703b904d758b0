package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"prestores/internal/bench"
	"prestores/internal/server"
)

// TestUploadRetriesBusyAnalysisSubmit drives -upload against a scripted
// server whose first POST /v1/analyses answers 429 (queue full): the
// client backs off and resubmits instead of failing, then follows the
// accepted job's stream and writes exactly the report to stdout.
func TestUploadRetriesBusyAnalysisSubmit(t *testing.T) {
	const report = "synthetic report\n"
	recording := bytes.Repeat([]byte("trace-bytes"), 1000)
	var analyses atomic.Int64
	var received bytes.Buffer
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/traces", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, `{"upload":"u1","offset":0}`)
	})
	mux.HandleFunc("PUT /v1/traces/uploads/u1", func(w http.ResponseWriter, r *http.Request) {
		part, _ := io.ReadAll(r.Body)
		received.Write(part)
		fmt.Fprintf(w, `{"upload":"u1","offset":%d}`, received.Len())
	})
	mux.HandleFunc("POST /v1/traces/uploads/u1/commit", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, `{"address":"abc","chunks":1,"records":7}`)
	})
	mux.HandleFunc("POST /v1/analyses", func(w http.ResponseWriter, r *http.Request) {
		if analyses.Add(1) == 1 {
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"job queue full"}`)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"job-1","state":"queued"}`)
	})
	mux.HandleFunc("GET /v1/jobs/job-1/stream", func(w http.ResponseWriter, r *http.Request) {
		enc := json.NewEncoder(w)
		enc.Encode(server.StreamEvent{Event: "status", Job: &server.JobStatus{ID: "job-1", State: "running"}})
		enc.Encode(server.StreamEvent{Event: "output", Data: "pass 1: progress\n" + report})
		enc.Encode(server.StreamEvent{Event: "done", Job: &server.JobStatus{ID: "job-1", State: "done",
			Result: &bench.Result{ID: "analysis/abc", Output: report}}})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	path := filepath.Join(t.TempDir(), "rec.trace")
	if err := os.WriteFile(path, recording, 0o644); err != nil {
		t.Fatal(err)
	}
	c := server.NewClient(5*time.Second, nil, server.Backoff{Base: time.Millisecond, Cap: 5 * time.Millisecond})
	var out bytes.Buffer
	if err := doUpload(context.Background(), c, &out, ts.URL, path, "app", 64); err != nil {
		t.Fatal(err)
	}
	if out.String() != report {
		t.Fatalf("stdout = %q, want exactly the report %q", out.String(), report)
	}
	if n := analyses.Load(); n != 2 {
		t.Fatalf("server saw %d analysis submits, want 2 (429, then accepted)", n)
	}
	if !bytes.Equal(received.Bytes(), recording) {
		t.Fatalf("server received %d bytes, want the %d-byte recording", received.Len(), len(recording))
	}
}

// TestUploadResumesDroppedAnalysisStream drives -upload against a
// scripted server that drops the analysis stream mid-output once: the
// client reattaches at the output offset it consumed, and still writes
// the full report to stdout exactly once.
func TestUploadResumesDroppedAnalysisStream(t *testing.T) {
	const progress, report = "pass 1: progress\n", "synthetic report\n"
	var attaches atomic.Int64
	var offset atomic.Value
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/traces", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, `{"upload":"u1","offset":0}`)
	})
	mux.HandleFunc("PUT /v1/traces/uploads/u1", func(w http.ResponseWriter, r *http.Request) {
		part, _ := io.ReadAll(r.Body)
		fmt.Fprintf(w, `{"upload":"u1","offset":%d}`, len(part))
	})
	mux.HandleFunc("POST /v1/traces/uploads/u1/commit", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, `{"address":"abc","chunks":1,"records":7}`)
	})
	mux.HandleFunc("POST /v1/analyses", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"job-1","state":"queued"}`)
	})
	mux.HandleFunc("GET /v1/jobs/job-1/stream", func(w http.ResponseWriter, r *http.Request) {
		enc := json.NewEncoder(w)
		if attaches.Add(1) == 1 {
			enc.Encode(server.StreamEvent{Event: "status", Job: &server.JobStatus{ID: "job-1", State: "running"}})
			enc.Encode(server.StreamEvent{Event: "output", Data: progress})
			return // the stream drops before the report and the done event
		}
		offset.Store(r.URL.Query().Get("offset"))
		enc.Encode(server.StreamEvent{Event: "output", Data: report})
		enc.Encode(server.StreamEvent{Event: "done", Job: &server.JobStatus{ID: "job-1", State: "done",
			Result: &bench.Result{ID: "analysis/abc", Output: report}}})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	path := filepath.Join(t.TempDir(), "rec.trace")
	if err := os.WriteFile(path, []byte("trace-bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := server.NewClient(5*time.Second, nil, server.Backoff{Base: time.Millisecond, Cap: 5 * time.Millisecond})
	var out bytes.Buffer
	if err := doUpload(context.Background(), c, &out, ts.URL, path, "app", 64); err != nil {
		t.Fatal(err)
	}
	if out.String() != report {
		t.Fatalf("stdout = %q, want exactly the report %q once", out.String(), report)
	}
	if n := attaches.Load(); n != 2 {
		t.Fatalf("server saw %d stream attaches, want 2 (dropped, then resumed)", n)
	}
	if got := offset.Load(); got != fmt.Sprint(len(progress)) {
		t.Fatalf("reattach asked for offset %v, want %d", got, len(progress))
	}
}
