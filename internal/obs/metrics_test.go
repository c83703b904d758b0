package obs

import (
	"strings"
	"testing"
	"time"
)

func TestRegistryExposition(t *testing.T) {
	var r Registry
	r.GaugeVecFunc("info", "Build identity.", []string{"version", "go"},
		func(set func(float64, ...string)) { set(1, "v1", "go1") })
	c := r.Counter("ops_total", "Ops.")
	seeded := r.CounterVec("routed_total", "Routed.", "shard")
	seeded.Seed("b")
	seeded.Seed("a")
	seeded.Inc("b")
	r.CounterVec("untouched_total", "Never incremented.", "shard")
	h := r.HistogramVec("wait_seconds", "Waits.", []float64{0.1, 1, 10}, "kind")
	h.Observe(50*time.Millisecond, "x")
	h.Observe(2*time.Second, "x")
	h.Observe(time.Minute, "x")
	r.GaugeFunc("ratio", "A ratio.", func() float64 { return 0.25 })
	r.CounterFunc("big_total", "Past 1<<63.", func() uint64 { return 1<<63 + 1 })
	c.Add(3)

	var b strings.Builder
	WriteFamilies(&b, r.Families())
	want := `# HELP info Build identity.
# TYPE info gauge
info{version="v1",go="go1"} 1
# HELP ops_total Ops.
# TYPE ops_total counter
ops_total 3
# HELP routed_total Routed.
# TYPE routed_total counter
routed_total{shard="a"} 0
routed_total{shard="b"} 1
# HELP wait_seconds Waits.
# TYPE wait_seconds histogram
wait_seconds_bucket{kind="x",le="0.1"} 1
wait_seconds_bucket{kind="x",le="1"} 1
wait_seconds_bucket{kind="x",le="10"} 2
wait_seconds_bucket{kind="x",le="+Inf"} 3
wait_seconds_sum{kind="x"} 62.05
wait_seconds_count{kind="x"} 3
# HELP ratio A ratio.
# TYPE ratio gauge
ratio 0.25
# HELP big_total Past 1<<63.
# TYPE big_total counter
big_total 9223372036854775809
`
	if b.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
	// The writer's output is what the parser reads back.
	fams, err := ParseMetrics(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 6 || fams[3].Name != "wait_seconds" || len(fams[3].Samples) != 6 {
		t.Fatalf("parsed back %d families: %+v", len(fams), fams)
	}
}
