package obs

import (
	"reflect"
	"strings"
	"testing"
)

const sampleExposition = `# HELP prestored_jobs_completed_total Jobs finished successfully.
# TYPE prestored_jobs_completed_total counter
prestored_jobs_completed_total 42
# HELP prestored_jobs_running Jobs currently running.
# TYPE prestored_jobs_running gauge
prestored_jobs_running 3
# HELP prestored_queue_wait_seconds Time jobs spend queued.
# TYPE prestored_queue_wait_seconds histogram
prestored_queue_wait_seconds_bucket{le="0.001"} 10
prestored_queue_wait_seconds_bucket{le="+Inf"} 42
prestored_queue_wait_seconds_sum 1.5
prestored_queue_wait_seconds_count 42
prestored_jobs_by_kind_total{kind="experiment",state="done"} 7
`

func TestParseMetrics(t *testing.T) {
	fams, err := ParseMetrics(strings.NewReader(sampleExposition))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	c := byName["prestored_jobs_completed_total"]
	if c == nil || c.Type != "counter" || len(c.Samples) != 1 || c.Samples[0].Value != "42" {
		t.Fatalf("counter family wrong: %+v", c)
	}
	if c.Help == "" {
		t.Fatal("help lost")
	}
	g := byName["prestored_jobs_running"]
	if g == nil || g.Type != "gauge" {
		t.Fatalf("gauge family wrong: %+v", g)
	}
	h := byName["prestored_queue_wait_seconds"]
	if h == nil || h.Type != "histogram" || len(h.Samples) != 4 {
		t.Fatalf("histogram children not folded: %+v", h)
	}
	if byName["prestored_queue_wait_seconds_bucket"] != nil {
		t.Fatal("bucket series became its own family")
	}
	kv := byName["prestored_jobs_by_kind_total"]
	if kv == nil || len(kv.Samples) != 1 {
		t.Fatalf("labeled family wrong: %+v", kv)
	}
	s := kv.Samples[0]
	if s.Label("kind") != "experiment" || s.Label("state") != "done" {
		t.Fatalf("labels wrong: %+v", s.Labels)
	}
	if f, err := s.Float(); err != nil || f != 7 {
		t.Fatalf("Float = %v, %v", f, err)
	}
	// Untyped sample with no TYPE comment defaults to untyped.
	fams2, err := ParseMetrics(strings.NewReader("loose_metric 1\n"))
	if err != nil || len(fams2) != 1 || fams2[0].Type != "untyped" {
		t.Fatalf("untyped default: %+v, %v", fams2, err)
	}
}

func TestParseMetricsRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"metric",                       // no value
		"metric not_a_number\n",        // bad value
		"1metric 2\n",                  // bad name
		"metric{le=\"0.1\" 3\n",        // unterminated labels
		"metric{=\"v\"} 1\n",           // empty label name
		"# TYPE metric widget\nm 1\n",  // unknown type
		"metric{l=\"unterminated} 1\n", // unterminated label value quote
	} {
		if _, err := ParseMetrics(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted malformed exposition %q", bad)
		}
	}
}

func TestParseLabelEscapes(t *testing.T) {
	in := `m{path="a\"b\\c\nd"} 1` + "\n"
	fams, err := ParseMetrics(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	got := fams[0].Samples[0].Label("path")
	if got != "a\"b\\c\nd" {
		t.Fatalf("escape round-trip: %q", got)
	}
	// Re-emission escapes back.
	var b strings.Builder
	WriteSample(&b, fams[0].Samples[0])
	if b.String() != in {
		t.Fatalf("WriteSample = %q, want %q", b.String(), in)
	}
}

func TestSampleWithLabel(t *testing.T) {
	s := Sample{Name: "m", Labels: []Label{{Name: "kind", Value: "x"}}, Value: "1"}
	s2 := s.WithLabel("shard", "http://a")
	if s2.Label("shard") != "http://a" || s2.Label("kind") != "x" {
		t.Fatalf("labels: %+v", s2.Labels)
	}
	if len(s.Labels) != 1 {
		t.Fatal("WithLabel mutated the receiver")
	}
	// Sorted insertion.
	if s2.Labels[0].Name != "kind" || s2.Labels[1].Name != "shard" {
		t.Fatalf("not sorted: %+v", s2.Labels)
	}
	// Overwrite.
	s3 := s2.WithLabel("shard", "http://b")
	if s3.Label("shard") != "http://b" || len(s3.Labels) != 2 {
		t.Fatalf("overwrite: %+v", s3.Labels)
	}
	var b strings.Builder
	WriteSample(&b, s3)
	if b.String() != `m{kind="x",shard="http://b"} 1`+"\n" {
		t.Fatalf("WriteSample = %q", b.String())
	}
	// Unlabeled write.
	b.Reset()
	WriteSample(&b, Sample{Name: "m", Value: "2"})
	if b.String() != "m 2\n" {
		t.Fatalf("unlabeled WriteSample = %q", b.String())
	}
}

func TestParseLabelValueWithBrace(t *testing.T) {
	var b strings.Builder
	WriteSample(&b, Sample{Name: "x", Labels: []Label{{Name: "v", Value: "a}b"}}, Value: "1"})
	fams, err := ParseMetrics(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parsing %q: %v", b.String(), err)
	}
	if got := fams[0].Samples[0].Label("v"); got != "a}b" {
		t.Fatalf("label v = %q, want %q", got, "a}b")
	}
}

// FuzzParseMetrics feeds arbitrary bytes to the parser the coordinator
// runs on every shard's /metrics page: it must never panic, and
// whatever it accepts must survive parse -> WriteFamilies -> parse
// unchanged.
func FuzzParseMetrics(f *testing.F) {
	f.Add(sampleExposition)
	f.Add(`x{v="a}b"} 1` + "\n")
	f.Add(`m{path="a\"b\\c\nd"} 1` + "\n")
	f.Add("x_sum 1\n# TYPE x histogram\nx_count 2\n")
	f.Fuzz(func(t *testing.T, in string) {
		fams, err := ParseMetrics(strings.NewReader(in))
		if err != nil {
			return
		}
		var once strings.Builder
		WriteFamilies(&once, fams)
		again, err := ParseMetrics(strings.NewReader(once.String()))
		if err != nil {
			t.Fatalf("re-parsing our own output failed: %v\n%s", err, once.String())
		}
		if !reflect.DeepEqual(fams, again) {
			t.Fatalf("parse is not a fixed point\nfirst:  %+v\nsecond: %+v", fams, again)
		}
		var twice strings.Builder
		WriteFamilies(&twice, again)
		if once.String() != twice.String() {
			t.Fatalf("re-emission differs\n%q\n%q", once.String(), twice.String())
		}
	})
}
