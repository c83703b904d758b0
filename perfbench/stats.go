package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// tailLadder lists the percentiles a tail is reported at, highest last.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// summary is a timing reported as a median plus the highest percentile
// that still has at least ten samples beyond it, with the sample count
// so a reader can judge how far to trust the tail.
type summary struct {
	N       int
	P50     float64
	TailPct float64 // 0 when no percentile above the median has ten samples beyond it
	Tail    float64
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs), P50: percentile(xs, 50)}
	for _, p := range tailLadder[1:] {
		if float64(len(xs))*(100-p)/100 >= 10-1e-9 { // tolerate 100-99.9 rounding
			s.TailPct, s.Tail = p, percentile(xs, p)
		}
	}
	return s
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so spreads computed here match the ones the benchmark is judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// interval is a half-open [Start, End) stretch of wall time.
type interval struct{ Start, End time.Duration }

// selfTime is parent's duration minus the part of it that the children
// cover. Children may overlap each other (parallel evaluations) and may
// stick out of the parent; each instant of the parent counts once.
func selfTime(parent interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.Start < parent.Start {
			c.Start = parent.Start
		}
		if c.End > parent.End {
			c.End = parent.End
		}
		if c.End > c.Start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	var covered time.Duration
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.Start <= cur.End:
			if c.End > cur.End {
				cur.End = c.End
			}
		default:
			covered += cur.End - cur.Start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.End - cur.Start
	}
	return parent.End - parent.Start - covered
}

// openLoop is a fixed-rate arrival schedule. Request i is due at
// i*gap after the start, whether or not earlier requests have finished;
// latency is measured from the due time, so a stall that delays the
// generator or the client charges every request queued behind it.
type openLoop struct {
	start time.Time
	gap   time.Duration
}

func (o openLoop) due(i int) time.Time { return o.start.Add(time.Duration(i) * o.gap) }

// late is how far behind schedule request i was sent.
func (o openLoop) late(i int, sent time.Time) time.Duration {
	if d := sent.Sub(o.due(i)); d > 0 {
		return d
	}
	return 0
}

// latency is request i's latency counted from its due time.
func (o openLoop) latency(i int, done time.Time) time.Duration { return done.Sub(o.due(i)) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
