// Package telemetry is the simulator's opt-in observability layer. A
// Recorder subscribes to a machine's instruction stream (sim.Hook) and
// memory-system stream (sim.MemHook) and turns a run into two
// artifacts:
//
//   - a simulated-cycle timeline — per-core op tracks plus derived
//     tracks for cache fills, evictions, write-backs, store-buffer
//     drains, fence stalls and pre-store ops — exported as Chrome
//     trace-event JSON loadable in Perfetto (timeline.go), and
//   - a per-cache-line attribution report — write counts, re-write and
//     re-read distances, and device-level write amplification per
//     address bucket — reproducing DirtBuster step 3's decision inputs
//     online instead of from an offline trace (linereport.go).
//
// The recorder is pay-as-you-go: nothing here runs unless hooks are
// installed, the timeline is a fixed-capacity ring (oldest events are
// overwritten, with a drop counter), function names are interned to
// integer IDs, and the line table is bounded. With no recorder attached
// the simulator's fast path is a nil check.
package telemetry

import (
	"sync"

	"prestores/internal/core"
	"prestores/internal/sim"
)

// Config sizes a Recorder. Zero values select defaults.
type Config struct {
	// Timeline enables ring-buffered event capture for WriteTimeline.
	Timeline bool
	// LineReport enables per-line and per-bucket aggregation.
	LineReport bool
	// MaxEvents caps the timeline ring (default 131072 events, ~7 MiB).
	// When full, the oldest events are overwritten and counted dropped:
	// the timeline shows the run's tail.
	MaxEvents int
	// BucketBytes is the write-amplification bucket size (default 64 KiB).
	BucketBytes uint64
	// MaxLines caps the line table (default 1<<20). Further lines are
	// dropped and counted.
	MaxLines int
}

func (c *Config) fillDefaults() {
	if c.MaxEvents == 0 {
		c.MaxEvents = 131072
	}
	if c.BucketBytes == 0 {
		c.BucketBytes = 64 << 10
	}
	if c.MaxLines == 0 {
		c.MaxLines = 1 << 20
	}
}

// entry is one ring slot. kind encodes sim.OpKind directly (0..) and
// sim.MemEventKind offset by memKindBase.
type entry struct {
	start uint64
	dur   uint64
	addr  uint64
	size  uint64
	fn    uint32
	mach  uint16
	core  int16
	kind  uint8
}

const memKindBase = 100

// machineState is the recorder's view of one attached machine. The
// line-report tables are per machine, so one machine's share of the
// recorder's state can be saved and restored on its own (see Fork).
type machineState struct {
	idx      uint16
	name     string
	lineSize uint64
	cores    int

	lines        map[uint64]*lineRec   // line address → record
	buckets      map[uint64]*bucketRec // bucket base → traffic
	droppedLines uint64
}

// lineRec is one line's write count and DirtBuster's per-line reuse
// record, at the default near thresholds. Telemetry has no notion of a
// write continuing a sequential streak, so every write to a written
// line counts as a re-write here; DirtBuster excludes streak-internal
// ones.
type lineRec struct {
	writes uint64
	core.LineReuse
}

type bucketRec struct {
	appWriteBytes    uint64
	deviceWriteBytes uint64
	deviceReadBytes  uint64
}

// Recorder captures telemetry from one or more machines. Attach it to
// each machine whose run should be observed; all captured data lands in
// this one recorder, keyed by attach order. The hook path takes the
// recorder lock, so attaching one recorder to machines driven from
// multiple goroutines is safe (but serializes them — run observed
// experiments with a single worker).
type Recorder struct {
	cfg Config

	mu       sync.Mutex
	machines []*machineState

	ring    []entry
	head    int // oldest entry once the ring is full
	dropped uint64

	fnIDs map[string]uint32
	fns   []string

	// nlines counts tracked lines across machines; MaxLines caps it.
	nlines int
}

// New builds a recorder. At least one of cfg.Timeline / cfg.LineReport
// should be set, or Attach records nothing.
func New(cfg Config) *Recorder {
	cfg.fillDefaults()
	r := &Recorder{cfg: cfg, fnIDs: map[string]uint32{"": 0}, fns: []string{""}}
	if cfg.Timeline {
		r.ring = make([]entry, 0, cfg.MaxEvents)
	}
	return r
}

// Attach subscribes the recorder to m's op and memory-system streams,
// replacing any previously installed hooks. Call before running the
// workload.
func (r *Recorder) Attach(m *sim.Machine) { r.attach(m) }

func (r *Recorder) attach(m *sim.Machine) *machineState {
	r.mu.Lock()
	ms := &machineState{
		idx:      uint16(len(r.machines)),
		name:     m.Name(),
		lineSize: m.LineSize(),
		cores:    m.Cores(),
	}
	if r.cfg.LineReport {
		ms.lines = make(map[uint64]*lineRec)
		ms.buckets = make(map[uint64]*bucketRec)
	}
	r.machines = append(r.machines, ms)
	r.mu.Unlock()
	if !r.cfg.Timeline && !r.cfg.LineReport {
		return ms
	}
	m.SetHook(func(ev sim.Event, c *sim.Core) { r.onOp(ms, ev, c) })
	m.SetMemHook(func(ev sim.MemEvent) { r.onMem(ms, ev) })
	return ms
}

// Dropped returns how many timeline events were overwritten because the
// ring filled.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Events returns the number of timeline events currently held.
func (r *Recorder) Events() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ring)
}

func (r *Recorder) onOp(ms *machineState, ev sim.Event, c *sim.Core) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cfg.Timeline {
		// The event's cost is the cycles it advanced the core clock, and
		// the clock has already advanced: the op spans [now-cost, now].
		now := uint64(c.Now())
		r.push(entry{
			start: now - ev.Cost,
			dur:   ev.Cost,
			addr:  ev.Addr,
			size:  ev.Size,
			fn:    r.intern(ev.Fn),
			mach:  ms.idx,
			core:  int16(ev.Core),
			kind:  uint8(ev.Kind),
		})
	}
	if r.cfg.LineReport {
		switch ev.Kind {
		case sim.OpStore, sim.OpStoreNT:
			r.noteWrite(ms, ev)
		case sim.OpLoad:
			r.noteRead(ms, ev)
		}
	}
}

func (r *Recorder) onMem(ms *machineState, ev sim.MemEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cfg.Timeline {
		r.push(entry{
			start: uint64(ev.Start),
			dur:   uint64(ev.End - ev.Start),
			addr:  ev.Addr,
			size:  ev.Size,
			mach:  ms.idx,
			core:  int16(ev.Core),
			kind:  memKindBase + uint8(ev.Kind),
		})
	}
	if r.cfg.LineReport {
		switch ev.Kind {
		case sim.MemWriteBack:
			r.bucketFor(ms, ev.Addr).deviceWriteBytes += ev.Size
		case sim.MemFill, sim.MemPrefetch:
			r.bucketFor(ms, ev.Addr).deviceReadBytes += ev.Size
		}
	}
}

func (r *Recorder) push(e entry) {
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, e)
		return
	}
	r.ring[r.head] = e
	r.head++
	if r.head == len(r.ring) {
		r.head = 0
	}
	r.dropped++
}

// replay visits held timeline events oldest-first.
func (r *Recorder) replay(fn func(e entry)) {
	for i := r.head; i < len(r.ring); i++ {
		fn(r.ring[i])
	}
	for i := 0; i < r.head; i++ {
		fn(r.ring[i])
	}
}

func (r *Recorder) intern(fn string) uint32 {
	if id, ok := r.fnIDs[fn]; ok {
		return id
	}
	id := uint32(len(r.fns))
	r.fnIDs[fn] = id
	r.fns = append(r.fns, fn)
	return id
}

// noteWrite updates per-line write records; the event's Instr is
// applied to every line a multi-line write spans.
func (r *Recorder) noteWrite(ms *machineState, ev sim.Event) {
	end := ev.Addr + ev.Size
	for line := ev.Addr &^ (ms.lineSize - 1); line < end; line += ms.lineSize {
		li := r.lineFor(ms, line)
		if li == nil {
			continue
		}
		li.writes++
		li.Write(ev.Instr, core.NearRewrite, true)

		// Write-amplification numerator: bytes the program wrote into
		// this line (vs. whole lines the device will receive).
		lo, hi := ev.Addr, end
		if lo < line {
			lo = line
		}
		if hi > line+ms.lineSize {
			hi = line + ms.lineSize
		}
		r.bucketFor(ms, line).appWriteBytes += hi - lo
	}
}

// noteRead updates re-read distances for previously written lines
// (lines never written are not tracked).
func (r *Recorder) noteRead(ms *machineState, ev sim.Event) {
	end := ev.Addr + ev.Size
	for line := ev.Addr &^ (ms.lineSize - 1); line < end; line += ms.lineSize {
		if li, ok := ms.lines[line]; ok {
			li.Read(ev.Instr, core.NearReread)
		}
	}
}

func (r *Recorder) lineFor(ms *machineState, line uint64) *lineRec {
	if li, ok := ms.lines[line]; ok {
		return li
	}
	if r.nlines >= r.cfg.MaxLines {
		ms.droppedLines++
		return nil
	}
	li := &lineRec{}
	ms.lines[line] = li
	r.nlines++
	return li
}

func (r *Recorder) bucketFor(ms *machineState, addr uint64) *bucketRec {
	k := addr - addr%r.cfg.BucketBytes
	if b, ok := ms.buckets[k]; ok {
		return b
	}
	b := &bucketRec{}
	ms.buckets[k] = b
	return b
}
