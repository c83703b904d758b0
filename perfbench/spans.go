package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by benchmark code
// around the call. Spans of one benchmark op share Op; Parent is the
// enclosing span's ID (0 for an op's root).
type span struct {
	ID, Parent, Op uint64
	Name           string
	Start, End     time.Duration // since the tracer's start
}

// tracer keeps spans in memory for the whole run; they are written out
// once, at the end. A nil *tracer records nothing, so untraced code
// paths pay one nil check per call. The benchmark keeps its own tracer
// instead of using internal/obs, so that a change to the program's
// tracing cannot change how the benchmark measures it.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// handle is an open span; end closes it.
type handle struct {
	t  *tracer
	sp span
}

// newOp allocates an op id (the id of the op's root span).
func (t *tracer) newOp() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// begin opens a span named name under parent within op.
func (t *tracer) begin(op, parent uint64, name string) *handle {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &handle{t: t, sp: span{ID: id, Parent: parent, Op: op, Name: name, Start: time.Since(t.t0)}}
}

// root opens the root span of op; its span id is the op id.
func (t *tracer) root(op uint64, name string) *handle {
	if t == nil {
		return nil
	}
	return &handle{t: t, sp: span{ID: op, Op: op, Name: name, Start: time.Since(t.t0)}}
}

func (h *handle) id() uint64 {
	if h == nil {
		return 0
	}
	return h.sp.ID
}

func (h *handle) end() {
	if h == nil {
		return
	}
	h.sp.End = time.Since(h.t.t0)
	h.t.mu.Lock()
	h.t.spans = append(h.t.spans, h.sp)
	h.t.mu.Unlock()
}

// add records a span measured elsewhere, from a timestamp pair taken
// around the call. A parent of 0 makes it op's root span.
func (t *tracer) add(op, parent uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := op
	if parent != 0 {
		t.next++
		id = t.next
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes groups spans by name and gives each span's self time in ms:
// its duration minus what its children cover.
func selfTimes(spans []span) map[string][]float64 {
	kids := map[uint64][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	self := map[string][]float64{}
	for _, s := range spans {
		self[s.Name] = append(self[s.Name], ms(selfTime(interval{s.Start, s.End}, kids[s.ID])))
	}
	return self
}

// writeChrome writes spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). Each op gets its own lane.
func writeChrome(w io.Writer, spans []span, meta map[string]string) error {
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","otherData":{`)
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "%s:%s", strconv.Quote(k), strconv.Quote(meta[k]))
	}
	bw.WriteString(`},"traceEvents":[`)
	for i, s := range sorted {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, `{"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"name":%s,"args":{"span":%d,"parent":%d,"op":%d}}`,
			s.Op, float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, strconv.Quote(s.Name), s.ID, s.Parent, s.Op)
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}
