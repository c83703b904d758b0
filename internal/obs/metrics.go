package obs

import (
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a small labelled metrics registry: the one place the
// daemon and the coordinator declare their Prometheus families.
// Families render in registration order; counters and histograms
// accumulate here, gauges (and counters owned elsewhere) are read at
// scrape time. Register everything before the first scrape:
// registration is not synchronised with Families.
type Registry struct {
	metrics []registered
}

type registered struct {
	name, help, typ string
	collect         func(f *Family)
}

func (r *Registry) add(name, help, typ string, collect func(f *Family)) {
	r.metrics = append(r.metrics, registered{name, help, typ, collect})
}

// Families samples every registered metric in registration order. A
// family with no series (a vec nothing has touched yet) is omitted.
func (r *Registry) Families() []*Family {
	out := make([]*Family, 0, len(r.metrics))
	for _, m := range r.metrics {
		f := &Family{Name: m.name, Help: m.help, Type: m.typ}
		if m.collect(f); len(f.Samples) > 0 {
			out = append(out, f)
		}
	}
	return out
}

// WriteFamilies writes families in the text exposition format
// (version 0.0.4): HELP and TYPE once per family, then its samples.
func WriteFamilies(w io.Writer, fams []*Family) {
	for _, f := range fams {
		if f.Help != "" {
			io.WriteString(w, "# HELP "+f.Name+" "+f.Help+"\n")
		}
		if f.Type != "" {
			io.WriteString(w, "# TYPE "+f.Name+" "+f.Type+"\n")
		}
		for _, s := range f.Samples {
			WriteSample(w, s)
		}
	}
}

// labelled pairs label names with one series' values.
func labelled(names, values []string) []Label {
	var ls []Label
	for i, n := range names {
		ls = append(ls, Label{Name: n, Value: values[i]})
	}
	return ls
}

// Counter registers an unlabelled counter and returns it to increment.
func (r *Registry) Counter(name, help string) *atomic.Int64 {
	c := new(atomic.Int64)
	r.CounterFunc(name, help, func() uint64 { return uint64(c.Load()) })
	return c
}

// CounterFunc registers an unlabelled counter whose value is owned
// elsewhere and read at scrape time. The value is unsigned so a count
// past 1<<63 never renders negative.
func (r *Registry) CounterFunc(name, help string, value func() uint64) {
	r.add(name, help, "counter", func(f *Family) {
		f.Samples = append(f.Samples, Sample{Name: name, Value: strconv.FormatUint(value(), 10)})
	})
}

// GaugeFunc registers an unlabelled gauge read at scrape time.
func (r *Registry) GaugeFunc(name, help string, value func() float64) {
	r.GaugeVecFunc(name, help, nil, func(set func(float64, ...string)) { set(value()) })
}

// GaugeVecFunc registers a labelled gauge read at scrape time: collect
// calls set once per series, with one value per label name, in the
// order the series should render.
func (r *Registry) GaugeVecFunc(name, help string, labels []string, collect func(set func(v float64, values ...string))) {
	r.add(name, help, "gauge", func(f *Family) {
		collect(func(v float64, values ...string) {
			f.Samples = append(f.Samples, Sample{Name: name, Labels: labelled(labels, values),
				Value: strconv.FormatFloat(v, 'g', -1, 64)})
		})
	})
}

// vec holds the series of a labelled family, one per distinct tuple of
// label values; each renders in sorted tuple order.
type vec[T any] struct {
	mu     sync.Mutex
	series map[string]*T
	values map[string][]string
}

// get returns the series for values, creating it with fresh on first use.
func (v *vec[T]) get(values []string, fresh func() *T) *T {
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.series == nil {
		v.series, v.values = map[string]*T{}, map[string][]string{}
	}
	s := v.series[key]
	if s == nil {
		s = fresh()
		v.series[key], v.values[key] = s, append([]string(nil), values...)
	}
	return s
}

// each calls fn on every series in sorted label-value order.
func (v *vec[T]) each(fn func(values []string, s *T)) {
	v.mu.Lock()
	defer v.mu.Unlock()
	keys := make([]string, 0, len(v.series))
	for k := range v.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fn(v.values[k], v.series[k])
	}
}

// CounterVec is a counter family with labels.
type CounterVec struct{ v vec[atomic.Int64] }

// Inc adds one to the series with the given label values.
func (c *CounterVec) Inc(values ...string) { c.v.get(values, newInt64).Add(1) }

// Seed materialises a zero-valued series. Seeded series render from the
// first scrape and are never deleted, so a series keyed by something
// that comes and goes (a shard leaving and rejoining the ring) stays
// present and monotonic.
func (c *CounterVec) Seed(values ...string) { c.v.get(values, newInt64) }

func newInt64() *atomic.Int64 { return new(atomic.Int64) }

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	c := &CounterVec{}
	r.add(name, help, "counter", func(f *Family) {
		c.v.each(func(values []string, n *atomic.Int64) {
			f.Samples = append(f.Samples, Sample{Name: name, Labels: labelled(labels, values),
				Value: strconv.FormatInt(n.Load(), 10)})
		})
	})
	return c
}

// HistogramVec is a labelled histogram of durations, exposed in
// seconds.
type HistogramVec struct {
	bounds []float64 // bucket upper bounds in seconds, ascending
	v      vec[histogram]
}

// histogram is one series: per-bucket counts (the last slot is +Inf,
// cumulated at scrape time), an observation count and a sum in
// nanoseconds.
type histogram struct {
	counts          []atomic.Int64
	total, sumNanos atomic.Int64
}

// Observe records one duration in the series with the given label
// values.
func (h *HistogramVec) Observe(d time.Duration, values ...string) {
	s := h.v.get(values, func() *histogram {
		return &histogram{counts: make([]atomic.Int64, len(h.bounds)+1)}
	})
	s.counts[sort.SearchFloat64s(h.bounds, d.Seconds())].Add(1)
	s.total.Add(1)
	s.sumNanos.Add(int64(d))
}

// HistogramVec registers a labelled duration histogram with the given
// bucket upper bounds (seconds, ascending).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	h := &HistogramVec{bounds: bounds}
	le := make([]string, 0, len(bounds)+1)
	for _, b := range bounds {
		le = append(le, strconv.FormatFloat(b, 'g', -1, 64))
	}
	le = append(le, "+Inf")
	r.add(name, help, "histogram", func(f *Family) {
		h.v.each(func(values []string, s *histogram) {
			base := labelled(labels, values)
			var cum int64
			for i := range le {
				cum += s.counts[i].Load()
				f.Samples = append(f.Samples, Sample{Name: name + "_bucket",
					Labels: append(base[:len(base):len(base)], Label{Name: "le", Value: le[i]}),
					Value:  strconv.FormatInt(cum, 10)})
			}
			f.Samples = append(f.Samples,
				Sample{Name: name + "_sum", Labels: base,
					Value: strconv.FormatFloat(time.Duration(s.sumNanos.Load()).Seconds(), 'g', -1, 64)},
				Sample{Name: name + "_count", Labels: base, Value: strconv.FormatInt(s.total.Load(), 10)})
		})
	})
	return h
}
