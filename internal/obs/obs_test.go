package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestIDRoundTrip(t *testing.T) {
	tr := NewTraceID()
	if tr.IsZero() {
		t.Fatal("NewTraceID returned zero")
	}
	got, err := ParseTraceID(tr.String())
	if err != nil || got != tr {
		t.Fatalf("ParseTraceID(%q) = %v, %v", tr.String(), got, err)
	}
	sp := NewSpanID()
	if sp.IsZero() {
		t.Fatal("NewSpanID returned zero")
	}
	gotSp, err := ParseSpanID(sp.String())
	if err != nil || gotSp != sp {
		t.Fatalf("ParseSpanID(%q) = %v, %v", sp.String(), gotSp, err)
	}
	if _, err := ParseTraceID("xyz"); err == nil {
		t.Fatal("ParseTraceID accepted garbage")
	}
	if _, err := ParseSpanID(strings.Repeat("0", 16)); err != nil {
		t.Fatalf("ParseSpanID rejected zero hex: %v", err)
	}
}

func TestIDJSONZeroOmits(t *testing.T) {
	sp := Span{Trace: NewTraceID(), ID: NewSpanID(), Name: "x"}
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"parent":""`) {
		t.Fatalf("zero parent should render empty: %s", b)
	}
	var back Span
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Trace != sp.Trace || back.ID != sp.ID || !back.Parent.IsZero() {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

func TestTracerNesting(t *testing.T) {
	store := NewStore(0, 0)
	tr := &Tracer{Service: "svc", Instance: "i1", Store: store}
	ctx, root := tr.Start(context.Background(), "root")
	_, child := tr.Start(ctx, "child", KV("k", "v"))
	child.End()
	root.End()

	spans, dropped := store.Spans(root.Context().Trace)
	if dropped != 0 || len(spans) != 2 {
		t.Fatalf("got %d spans (%d dropped)", len(spans), dropped)
	}
	// child recorded first (ended first)
	if spans[0].Name != "child" || spans[1].Name != "root" {
		t.Fatalf("unexpected order: %s, %s", spans[0].Name, spans[1].Name)
	}
	if spans[0].Parent != spans[1].ID {
		t.Fatal("child not parented to root")
	}
	if spans[0].Trace != spans[1].Trace {
		t.Fatal("trace IDs differ")
	}
	if spans[0].Attr("k") != "v" {
		t.Fatal("attr lost")
	}
	if spans[0].Service != "svc" || spans[0].Instance != "i1" {
		t.Fatalf("service/instance not stamped: %+v", spans[0])
	}
	if spans[1].Duration() < 0 {
		t.Fatal("negative duration")
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer enabled")
	}
	ctx, sp := tr.Start(context.Background(), "x")
	sp.SetAttr("a", "b")
	sp.End()
	if sc := sp.Context(); sc.Valid() {
		t.Fatal("nil span has valid context")
	}
	// Package-level Start without a tracer in ctx is also a no-op.
	ctx2, sp2 := Start(ctx, "y")
	sp2.End()
	if ctx2 != ctx {
		t.Fatal("no-op Start changed context")
	}
}

func TestRecordExplicitTimes(t *testing.T) {
	store := NewStore(0, 0)
	tr := &Tracer{Service: "svc", Store: store}
	parent := tr.Child(SpanContext{})
	start := time.Now().Add(-time.Second)
	end := time.Now()
	id := tr.Record(parent, "queue.wait", start, end, KV("pos", "3"))
	if id.IsZero() {
		t.Fatal("Record returned zero ID")
	}
	spans, _ := store.Spans(parent.Trace)
	if len(spans) != 1 || spans[0].Parent != parent.Span {
		t.Fatalf("unexpected spans: %+v", spans)
	}
	if d := spans[0].Duration(); d < 900*time.Millisecond || d > 1100*time.Millisecond {
		t.Fatalf("duration %v not ~1s", d)
	}
}

func TestStoreEviction(t *testing.T) {
	s := NewStore(2, 3)
	traces := []TraceID{NewTraceID(), NewTraceID(), NewTraceID()}
	for _, id := range traces {
		s.Add(Span{Trace: id, ID: NewSpanID(), Name: "a"})
	}
	if s.Traces() != 2 {
		t.Fatalf("want 2 traces after eviction, got %d", s.Traces())
	}
	if spans, _ := s.Spans(traces[0]); spans != nil {
		t.Fatal("oldest trace not evicted")
	}
	// Per-trace cap.
	for i := 0; i < 5; i++ {
		s.Add(Span{Trace: traces[2], ID: NewSpanID(), Name: "b"})
	}
	spans, dropped := s.Spans(traces[2])
	if len(spans) != 3 || dropped != 3 {
		t.Fatalf("want 3 kept / 3 dropped, got %d / %d", len(spans), dropped)
	}
	// Zero-trace spans are ignored.
	s.Add(Span{ID: NewSpanID()})
	if s.Traces() != 2 {
		t.Fatal("zero-trace span stored")
	}
}

func TestInjectExtract(t *testing.T) {
	sc := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	h := http.Header{}
	Inject(h, sc)
	got, ok := Extract(h)
	if !ok || got != sc {
		t.Fatalf("Extract = %+v, %v", got, ok)
	}

	// Invalid contexts do not inject.
	h2 := http.Header{}
	Inject(h2, SpanContext{})
	if h2.Get(TraceparentHeader) != "" {
		t.Fatal("invalid context injected")
	}

	for _, bad := range []string{
		"",
		"00-short-bad-01",
		"ff-" + sc.Trace.String() + "-" + sc.Span.String() + "-01",       // forbidden version
		"00-" + strings.Repeat("0", 32) + "-" + sc.Span.String() + "-01", // zero trace
		"00-" + sc.Trace.String() + "-" + strings.Repeat("z", 16) + "-01",
	} {
		h := http.Header{}
		if bad != "" {
			h.Set(TraceparentHeader, bad)
		}
		if _, ok := Extract(h); ok {
			t.Fatalf("Extract accepted %q", bad)
		}
	}

	// Future version with extra fields still parses.
	h3 := http.Header{}
	h3.Set(TraceparentHeader, "01-"+sc.Trace.String()+"-"+sc.Span.String()+"-01-extrastuff")
	if got, ok := Extract(h3); !ok || got != sc {
		t.Fatal("future traceparent version rejected")
	}
}

func TestContextPropagation(t *testing.T) {
	store := NewStore(0, 0)
	tr := &Tracer{Service: "svc", Store: store}
	ctx, root := tr.Start(context.Background(), "root")
	// InjectContext picks up the active span.
	h := http.Header{}
	InjectContext(ctx, h)
	sc, ok := Extract(h)
	if !ok || sc != root.Context() {
		t.Fatalf("InjectContext/Extract mismatch: %+v vs %+v", sc, root.Context())
	}
	// TracerFromContext round-trips, so deep layers can Start.
	if TracerFromContext(ctx) != tr {
		t.Fatal("tracer not in context")
	}
	_, child := Start(ctx, "deep")
	child.End()
	root.End()
	if spans, _ := store.Spans(root.Context().Trace); len(spans) != 2 {
		t.Fatalf("deep span not recorded: %d", len(spans))
	}
}

func TestFlightRecorder(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 6; i++ {
		f.Recordf("state", "job-1", "", "step %d", i)
	}
	recs := f.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("want 4 retained, got %d", len(recs))
	}
	if f.Recorded() != 6 {
		t.Fatalf("want 6 recorded, got %d", f.Recorded())
	}
	// Oldest first, and the two oldest were overwritten.
	if recs[0].Seq != 2 || recs[3].Seq != 5 {
		t.Fatalf("unexpected seqs: %d..%d", recs[0].Seq, recs[3].Seq)
	}
	if recs[3].Detail != "step 5" {
		t.Fatalf("detail lost: %q", recs[3].Detail)
	}

	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Recorded uint64         `json:"recorded"`
		Records  []FlightRecord `json:"records"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Recorded != 6 || len(dump.Records) != 4 {
		t.Fatalf("bad dump: %+v", dump)
	}

	buf.Reset()
	f.WriteText(&buf)
	if !strings.Contains(buf.String(), "job=job-1") || !strings.Contains(buf.String(), "step 5") {
		t.Fatalf("text dump missing fields:\n%s", buf.String())
	}
}

func TestFlightRecorderNilAndConcurrent(t *testing.T) {
	var nilF *FlightRecorder
	nilF.Record("x", "", "", "")
	if nilF.Snapshot() != nil || nilF.Recorded() != 0 {
		t.Fatal("nil recorder not inert")
	}

	f := NewFlightRecorder(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				f.Record("k", "j", "", "d")
				f.Snapshot()
			}
		}()
	}
	wg.Wait()
	if f.Recorded() != 800 {
		t.Fatalf("lost records: %d", f.Recorded())
	}
	recs := f.Snapshot()
	if len(recs) != 64 {
		t.Fatalf("retained %d, want 64", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatal("snapshot not strictly ordered by seq")
		}
	}
}

func TestLogHandlerStampsTraceIDs(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(NewLogHandler(slog.NewTextHandler(&buf, nil)))
	store := NewStore(0, 0)
	tr := &Tracer{Service: "svc", Store: store}
	ctx, sp := tr.Start(context.Background(), "op")

	log.InfoContext(ctx, "traced line")
	log.Info("untraced line")
	sp.End()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %d", len(lines))
	}
	want := "trace_id=" + sp.Context().Trace.String()
	if !strings.Contains(lines[0], want) || !strings.Contains(lines[0], "span_id=") {
		t.Fatalf("traced line missing IDs: %s", lines[0])
	}
	if strings.Contains(lines[1], "trace_id=") {
		t.Fatalf("untraced line has trace_id: %s", lines[1])
	}

	// WithAttrs/WithGroup keep the wrapper.
	buf.Reset()
	log.With("a", "b").WithGroup("g").InfoContext(ctx, "still traced", "c", "d")
	if !strings.Contains(buf.String(), "trace_id=") {
		t.Fatalf("wrapped handler lost stamping: %s", buf.String())
	}
}

func TestVersion(t *testing.T) {
	v := Version()
	if v == "" {
		t.Fatal("empty version")
	}
	if gv := GoVersion(); !strings.HasPrefix(gv, "go") {
		t.Fatalf("odd go version %q", gv)
	}
	var buf bytes.Buffer
	PrintVersion(&buf, "prestored")
	if !strings.HasPrefix(buf.String(), "prestored ") {
		t.Fatalf("PrintVersion output %q", buf.String())
	}
}
