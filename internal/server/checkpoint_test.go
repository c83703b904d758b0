package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	"prestores/internal/bench"
	"prestores/internal/checkpoint"
	"prestores/internal/scenario"
	"prestores/internal/telemetry"
)

// syncWriter serializes slog writes from worker goroutines.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestJobContextCarriesCheckpointView asserts the worker injects a
// per-job view of the shared store into the run context, and that the
// job-lifecycle log line reports the job's own hit/miss counts.
func TestJobContextCarriesCheckpointView(t *testing.T) {
	var logBuf syncWriter
	e := bench.Experiment{
		ID: "ck1", Title: "checkpoint probe", Paper: "n/a",
		Run: func(ctx context.Context, w io.Writer, quick bool) {
			view := checkpoint.FromContext(ctx)
			if view == nil {
				io.WriteString(w, "no view\n")
				return
			}
			if _, ok := view.Get("probe"); ok {
				io.WriteString(w, "unexpected hit\n")
				return
			}
			view.Put("probe", []byte("warm"))
			if data, ok := view.Get("probe"); !ok || string(data) != "warm" {
				io.WriteString(w, "lost put\n")
				return
			}
			io.WriteString(w, "view ok\n")
		},
	}
	s, ts := newTestServer(t, Config{
		Workers: 1,
		Lookup:  lookupOf(e),
		Logger:  slog.New(slog.NewTextHandler(&logBuf, nil)),
	})

	st := submit(t, ts.URL, map[string]any{"id": "ck1", "quick": true})
	final := waitFinal(t, ts.URL, st.ID)
	if final.State != "done" || !strings.Contains(final.Result.Output, "view ok") {
		t.Fatalf("job did not see a working checkpoint view: %+v", final)
	}
	if s.ck == nil || s.ck.Len() != 1 {
		t.Fatalf("shared store should hold the probe entry; store=%v", s.ck)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "ckpt_hits=1") || !strings.Contains(logs, "ckpt_misses=1") {
		t.Errorf("job done log line missing per-job checkpoint counters:\n%s", logs)
	}
}

// TestCheckpointDisabled asserts a negative CheckpointBytes turns the
// subsystem off end to end: no store, no context view, no metric family.
func TestCheckpointDisabled(t *testing.T) {
	e := bench.Experiment{
		ID: "ck0", Title: "no checkpoint", Paper: "n/a",
		Run: func(ctx context.Context, w io.Writer, quick bool) {
			if checkpoint.FromContext(ctx) != nil {
				io.WriteString(w, "unexpected view\n")
				return
			}
			io.WriteString(w, "no view\n")
		},
	}
	s, ts := newTestServer(t, Config{Workers: 1, CheckpointBytes: -1, Lookup: lookupOf(e)})
	if s.ck != nil {
		t.Fatal("store built despite CheckpointBytes < 0")
	}
	st := submit(t, ts.URL, map[string]any{"id": "ck0", "quick": true})
	final := waitFinal(t, ts.URL, st.ID)
	if final.State != "done" || !strings.Contains(final.Result.Output, "no view") {
		t.Fatalf("disabled server still exposed a view: %+v", final)
	}
	if text := scrapeMetrics(t, ts.URL); strings.Contains(text, "prestored_checkpoint") {
		t.Errorf("checkpoint metric family rendered while disabled:\n%s", text)
	}
}

// telemetrySpec is a small ycsb spec with a line-report telemetry block;
// seeds differ only in the measured phase, so they share a warm state.
func telemetrySpec(seed int) string {
	return fmt.Sprintf(`{"version": 1, "name": "forked-telemetry",
  "machine": {"preset": "machine-a"},
  "workload": {"name": "ycsb", "params": {"records": 2000, "ops": 300, "threads": 2, "seed": %d}},
  "policy": {"ops": ["none"], "columns": [{"title": "ops/s", "op": "none", "metric": "ops_per_sec", "format": "mops"}]},
  "telemetry": {"line_report": true}}`, seed)
}

// TestTelemetryJobForksFromSeedSibling is the daemon side of telemetry
// artifacts not depending on the checkpoint cache: a telemetry spec
// that differs only in seed from an already-run one forks from its warm
// state, and its linereport artifact still equals an in-process cold
// run's byte for byte.
func TestTelemetryJobForksFromSeedSibling(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two KV scenario jobs; skipped with -short")
	}
	s, ts := newTestServer(t, Config{Workers: 1})
	runJob := func(spec string) JobStatus {
		t.Helper()
		code, data := postRaw(t, ts.URL+"/v1/scenarios", `{"spec": `+spec+`}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit: status %d: %s", code, data)
		}
		var st JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		st = waitFinal(t, ts.URL, st.ID)
		if st.State != "done" {
			t.Fatalf("scenario job did not finish cleanly: %+v", st)
		}
		return st
	}

	runJob(telemetrySpec(1))
	misses := s.ck.Misses()
	st := runJob(telemetrySpec(2))
	if s.ck.Misses() != misses {
		t.Errorf("seed sibling missed the checkpoint store (%d -> %d misses)", misses, s.ck.Misses())
	}
	got := mustArtifact(t, ts.URL, st.ID, "linereport")

	sp, err := scenario.Decode([]byte(telemetrySpec(2)))
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.New(telemetry.Config{LineReport: true})
	if err := bench.RunSpec(scenario.WithRecorder(context.Background(), rec), io.Discard, sp, false); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := rec.LineReport(256).WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("forked job's linereport (%d B) differs from a cold in-process run's (%d B)", len(got), want.Len())
	}
}
