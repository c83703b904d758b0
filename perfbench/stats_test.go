package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input in place")
	}
}

// The tail is the highest percentile with at least ten samples beyond
// it, so it climbs the ladder only as the sample count allows.
func TestSummarizeTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		s := summarize(xs)
		if s.N != c.n {
			t.Errorf("n=%d: N = %d", c.n, s.N)
		}
		if s.TailPct != c.want {
			t.Errorf("n=%d: tail percentile = %v, want %v", c.n, s.TailPct, c.want)
		}
		if s.TailPct > 0 && !near(s.Tail, percentile(xs, s.TailPct)) {
			t.Errorf("n=%d: tail = %v, want p%v = %v", c.n, s.Tail, s.TailPct, percentile(xs, s.TailPct))
		}
	}
}

// Expected values from Python: statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{2, 4}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread = %v", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	parent := interval{0, 100 * ms}
	for _, c := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"none", nil, 100 * ms},
		{"disjoint", []interval{{10 * ms, 20 * ms}, {30 * ms, 50 * ms}}, 70 * ms},
		// Two parallel evaluations overlapping by 10 ms cover 40 ms, not 50.
		{"overlapping", []interval{{10 * ms, 40 * ms}, {30 * ms, 50 * ms}}, 60 * ms},
		{"nested", []interval{{10 * ms, 60 * ms}, {20 * ms, 30 * ms}}, 50 * ms},
		{"sticking out", []interval{{-10 * ms, 10 * ms}, {90 * ms, 120 * ms}}, 80 * ms},
		{"covering", []interval{{0, 100 * ms}, {50 * ms, 60 * ms}}, 0},
		{"empty child", []interval{{40 * ms, 40 * ms}}, 100 * ms},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time = %v, want %v", c.name, got, c.want)
		}
	}
}

// selfTimes must attribute each child to its own parent only.
func TestSelfTimesByName(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Op: 1, Name: "search", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Op: 1, Name: "eval", Start: 10 * ms, End: 60 * ms},
		{ID: 3, Parent: 1, Op: 1, Name: "eval", Start: 40 * ms, End: 90 * ms},
		{ID: 4, Op: 4, Name: "search", Start: 200 * ms, End: 210 * ms},
	}
	self := selfTimes(spans)
	if got := self["search"]; len(got) != 2 || !near(got[0], 20) || !near(got[1], 10) {
		t.Errorf("search self times = %v, want [20 10]", got)
	}
	if got := self["eval"]; len(got) != 2 || !near(got[0], 50) || !near(got[1], 50) {
		t.Errorf("eval self times = %v, want [50 50]", got)
	}
}

// A stalled generator makes every request queued behind the stall late,
// and their latency counts from when they were due, not when sent.
func TestOpenLoopLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	o := openLoop{start: start, gap: 50 * time.Millisecond}
	if got := o.due(3); !got.Equal(start.Add(150 * time.Millisecond)) {
		t.Fatalf("due(3) = %v", got)
	}
	// Request 2 is sent on time, request 3 only after a 120 ms stall.
	if got := o.late(2, o.due(2)); got != 0 {
		t.Errorf("on-time request late by %v", got)
	}
	if got := o.late(2, o.due(2).Add(-time.Millisecond)); got != 0 {
		t.Errorf("early request late by %v", got)
	}
	sent := o.due(2).Add(120 * time.Millisecond)
	if got := o.late(3, sent); got != 70*time.Millisecond {
		t.Errorf("late = %v, want 70ms", got)
	}
	// Served in 5 ms once sent: latency includes the 70 ms it waited.
	if got := o.latency(3, sent.Add(5*time.Millisecond)); got != 75*time.Millisecond {
		t.Errorf("latency = %v, want 75ms", got)
	}
}
