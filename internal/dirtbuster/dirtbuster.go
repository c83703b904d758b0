// Package dirtbuster implements the DirtBuster tool (paper §6): a
// dynamic analysis that finds the code locations where inserting a
// pre-store is beneficial and decides which kind to insert.
//
// The pipeline mirrors the paper's three steps:
//
//  1. Sampling (internal/profile, the perf stand-in) finds the
//     write-intensive functions cheaply.
//  2. Full instrumentation (the machine hook, the PIN stand-in) records
//     every access of those functions and classifies writes into
//     "sequentiality contexts" and writes-before-fences.
//  3. Re-read and re-write distances are computed per cache line
//     (stored in a B-tree, as the paper notes) and drive the final
//     recommendation: demote if re-written, clean if re-read, skip if
//     neither, nothing if the pattern would not benefit.
package dirtbuster

import (
	"sort"

	"prestores/internal/btree"
	"prestores/internal/core"
	"prestores/internal/profile"
	"prestores/internal/sim"
	"prestores/internal/units"
)

// Config tunes the analysis thresholds.
type Config struct {
	// SampleInterval is step 1's sampling period in memory ops.
	SampleInterval uint64
	// TopFunctions bounds how many write-intensive functions step 2
	// instruments.
	TopFunctions int
	// WriteIntensiveShare is the store share below which an application
	// is not worth patching (the paper's "less than 10% of their time
	// issuing store instructions" screen).
	WriteIntensiveShare float64
	// SeqGap is the maximum gap (bytes) between a write and a context's
	// last write for the write to extend the context.
	SeqGap uint64
	// NearRewrite is the re-write distance (instructions) under which
	// data counts as re-written (pre-store choice demote; cleaning
	// would cause a memory write per rewrite).
	NearRewrite uint64
	// NearReread is the re-read distance under which data counts as
	// re-read (pre-store choice clean).
	NearReread uint64
	// NearFence is the write-to-fence distance (instructions) under
	// which a write counts as "before a fence".
	NearFence uint64
	// MinSeqShare is the sequential-write share above which a function
	// counts as writing sequentially.
	MinSeqShare float64
	// MinFenceShare is the writes-before-fence share above which a
	// function counts as fence-bound.
	MinFenceShare float64
	// MaxContexts bounds the open sequentiality contexts tracked per
	// core (the paper tracks unboundedly; "in practice ... only a few
	// objects").
	MaxContexts int
}

func (c *Config) fillDefaults() {
	if c.SampleInterval == 0 {
		c.SampleInterval = 97
	}
	if c.TopFunctions == 0 {
		c.TopFunctions = 6
	}
	if c.WriteIntensiveShare == 0 {
		c.WriteIntensiveShare = 0.10
	}
	if c.SeqGap == 0 {
		c.SeqGap = 64
	}
	if c.NearRewrite == 0 {
		c.NearRewrite = core.NearRewrite
	}
	if c.NearReread == 0 {
		c.NearReread = core.NearReread
	}
	if c.NearFence == 0 {
		c.NearFence = 400
	}
	if c.MinSeqShare == 0 {
		c.MinSeqShare = 0.25
	}
	if c.MinFenceShare == 0 {
		c.MinFenceShare = 0.25
	}
	if c.MaxContexts == 0 {
		c.MaxContexts = 128
	}
}

// Workload is an application DirtBuster can analyze: a factory for a
// fresh machine and a run function. Each analysis step runs the
// workload on its own machine so instrumentation never observes a
// warmed cache from a previous step.
type Workload struct {
	Name       string
	NewMachine func() *sim.Machine
	Run        func(m *sim.Machine)
}

// Analyze runs the full three-step pipeline on the workload.
func Analyze(w Workload, cfg Config) *Report {
	cfg.fillDefaults()

	// Step 1: sampling.
	sampler := profile.New(cfg.SampleInterval)
	m1 := w.NewMachine()
	m1.SetHook(sampler.Hook())
	w.Run(m1)
	m1.SetHook(nil)

	rep := &Report{
		App:        w.Name,
		Config:     cfg,
		StoreShare: sampler.StoreTimeShare(),
	}
	rep.WriteIntensive = rep.StoreShare >= cfg.WriteIntensiveShare
	funcStats := sampler.Report()
	if !rep.WriteIntensive {
		// The paper does not instrument non-write-intensive apps
		// further; adding pre-stores to them would have no effect.
		for i, fs := range funcStats {
			if i == cfg.TopFunctions {
				break
			}
			rep.Functions = append(rep.Functions, FuncReport{
				Name:       fs.Fn,
				StoreShare: fs.StoreShare,
				Callchains: fs.Callchains,
				Choice:     core.NoPrestore,
				Reason:     "application is not write-intensive",
			})
		}
		return rep
	}

	monitored := make(map[string]*fnState)
	for i, fs := range funcStats {
		if i == cfg.TopFunctions || fs.Stores == 0 {
			break
		}
		monitored[fs.Fn] = &fnState{
			name:       fs.Fn,
			storeShare: fs.StoreShare,
			callchains: fs.Callchains,
			buckets:    make(map[uint64]*bucketAgg),
		}
	}

	// Steps 2 and 3: full instrumentation of the monitored functions.
	an := &analysis{cfg: cfg, fns: monitored}
	m2 := w.NewMachine()
	an.lineSize = m2.LineSize()
	an.cores = make([]coreState, m2.Cores())
	m2.SetHook(an.hook)
	w.Run(m2)
	m2.SetHook(nil)
	an.finish()

	// Rank monitored functions by sampled store share.
	fns := make([]*fnState, 0, len(monitored))
	for _, st := range monitored {
		fns = append(fns, st)
	}
	sort.Slice(fns, func(i, j int) bool {
		if fns[i].storeShare != fns[j].storeShare {
			return fns[i].storeShare > fns[j].storeShare
		}
		return fns[i].name < fns[j].name
	})
	for _, st := range fns {
		rep.Functions = append(rep.Functions, st.report(cfg))
	}
	return rep
}

// fnState accumulates per-function instrumentation.
type fnState struct {
	name       string
	storeShare float64
	callchains []string

	totalWrites uint64 // write ops observed
	seqWrites   uint64 // write ops that extended a context

	writesBeforeFence uint64 // writes within NearFence of the next fence
	fenceSamples      uint64 // writes with any following fence observed
	minFenceDist      uint64 // min write->fence distance (instructions)

	buckets map[uint64]*bucketAgg // context size class -> aggregate
}

// bucketAgg aggregates sequential contexts of one size class.
type bucketAgg struct {
	contexts uint64
	writes   uint64
	core.Reuse
}

// seqCtx is an open sequentiality context: a region being written
// front-to-back (paper §6.2.2).
type seqCtx struct {
	id         uint32
	fn         string
	start      uint64
	lastEnd    uint64
	writes     uint64
	firstUnits uint64 // line units of the context's first write
}

// promote registers a context as sequential, assigning its id.
func (a *analysis) promote(c *seqCtx) {
	a.ctxMeta = append(a.ctxMeta, ctxMeta{fn: c.fn})
	a.nextCtx++
	c.id = a.nextCtx
}

// ctxMeta survives a context's closure for line attribution.
type ctxMeta struct {
	fn    string
	bytes uint64
}

// pendingWrite is a write awaiting its next fence (distance tracking).
type pendingWrite struct {
	fn    string
	instr uint64
	units uint64 // line units, so shares match totalWrites' units
}

// coreState is the per-core portion of the instrumentation.
type coreState struct {
	contexts []*seqCtx
	pending  []pendingWrite
}

// lineInfo is the per-cache-line record (stored in a B-tree, §6.2.3).
type lineInfo struct {
	core.LineReuse
	ctxID uint32 // context of the last write (0 = non-sequential)
}

type analysis struct {
	cfg      Config
	fns      map[string]*fnState
	cores    []coreState
	lineSize uint64

	lines   btree.Tree[lineInfo]
	ctxMeta []ctxMeta // index = ctx id - 1
	nextCtx uint32
}

func (a *analysis) hook(ev sim.Event, _ *sim.Core) {
	switch ev.Kind {
	case sim.OpStore, sim.OpStoreNT:
		if st := a.fns[ev.Fn]; st != nil {
			a.onWrite(st, ev)
		}
	case sim.OpLoad:
		a.onRead(ev)
	case sim.OpFence, sim.OpAtomic:
		a.onFence(ev)
	}
}

// onWrite classifies a write against the core's sequentiality contexts
// and updates the per-line records.
//
// Events aggregate the component stores of one memcpy/memset-style
// operation, so counting is normalized to line units: a single event
// spanning several lines is itself a sequential run of stores (PIN
// would see its component stores as adjacent).
func (a *analysis) onWrite(st *fnState, ev sim.Event) {
	lineUnits := (ev.Size + a.lineSize - 1) / a.lineSize
	if lineUnits == 0 {
		lineUnits = 1
	}
	st.totalWrites += lineUnits
	cs := &a.cores[ev.Core]

	// Find a context this write extends.
	var ctx *seqCtx
	for _, c := range cs.contexts {
		if ev.Addr >= c.lastEnd && ev.Addr <= c.lastEnd+a.cfg.SeqGap && c.fn == st.name {
			ctx = c
			break
		}
	}
	if ctx != nil {
		ctx.lastEnd = ev.Addr + ev.Size
		ctx.writes += lineUnits
		if ctx.id == 0 {
			a.promote(ctx)
			st.seqWrites += ctx.firstUnits // retroactively sequential
		}
		st.seqWrites += lineUnits
	} else {
		if len(cs.contexts) >= a.cfg.MaxContexts {
			a.closeCtx(cs.contexts[0])
			cs.contexts = cs.contexts[1:]
		}
		ctx = &seqCtx{fn: st.name, start: ev.Addr, lastEnd: ev.Addr + ev.Size, writes: lineUnits, firstUnits: lineUnits}
		cs.contexts = append(cs.contexts, ctx)
		if lineUnits >= 2 {
			// A multi-line write is a sequential run by itself.
			a.promote(ctx)
			st.seqWrites += lineUnits
		}
	}

	// Per-line re-write distances. A write that continues the same
	// sequential streak is not a rewrite (§6.2.3).
	for line := units.AlignDown(ev.Addr, a.lineSize); line < ev.Addr+ev.Size; line += a.lineSize {
		id := ctx.id
		instr := ev.Instr
		a.lines.Update(line, func(li *lineInfo) {
			li.Write(instr, a.cfg.NearRewrite, id == 0 || li.ctxID != id)
			li.ctxID = id
		})
	}

	// Fence-distance tracking.
	cs.pending = append(cs.pending, pendingWrite{fn: st.name, instr: ev.Instr, units: lineUnits})
	if len(cs.pending) > 4096 {
		cs.pending = cs.pending[len(cs.pending)-4096:]
	}
}

// onRead updates re-read distances for previously written lines.
func (a *analysis) onRead(ev sim.Event) {
	for line := units.AlignDown(ev.Addr, a.lineSize); line < ev.Addr+ev.Size; line += a.lineSize {
		instr := ev.Instr
		if _, ok := a.lines.Get(line); !ok {
			continue // never written by a monitored function
		}
		a.lines.Update(line, func(li *lineInfo) { li.Read(instr, a.cfg.NearReread) })
	}
}

// onFence records write-to-fence distances for the issuing core.
func (a *analysis) onFence(ev sim.Event) {
	cs := &a.cores[ev.Core]
	for _, w := range cs.pending {
		st := a.fns[w.fn]
		if st == nil {
			continue
		}
		dist := ev.Instr - w.instr
		st.fenceSamples += w.units
		if st.fenceSamples == w.units || dist < st.minFenceDist {
			st.minFenceDist = dist
		}
		if dist <= a.cfg.NearFence {
			st.writesBeforeFence += w.units
		}
	}
	cs.pending = cs.pending[:0]
}

// closeCtx folds a finished context into its function's size buckets.
func (a *analysis) closeCtx(c *seqCtx) {
	if c.id == 0 {
		return // singleton: never became sequential
	}
	a.ctxMeta[c.id-1].bytes = c.lastEnd - c.start
}

// finish closes open contexts and attributes line distances to context
// size buckets.
func (a *analysis) finish() {
	for i := range a.cores {
		for _, c := range a.cores[i].contexts {
			a.closeCtx(c)
		}
		a.cores[i].contexts = nil
	}
	a.lines.Ascend(func(line uint64, li lineInfo) bool {
		if li.ctxID == 0 {
			return true
		}
		meta := a.ctxMeta[li.ctxID-1]
		st := a.fns[meta.fn]
		if st == nil {
			return true
		}
		b := st.buckets[sizeClass(meta.bytes)]
		if b == nil {
			b = &bucketAgg{}
			st.buckets[sizeClass(meta.bytes)] = b
		}
		// Weight by write events (first write plus every rewrite), so
		// bucket shares are comparable to the function's write counts.
		b.writes += li.Rewrites + 1
		b.Add(li.Reuse)
		return true
	})
	// Count contexts per bucket.
	for _, meta := range a.ctxMeta {
		st := a.fns[meta.fn]
		if st == nil {
			continue
		}
		b := st.buckets[sizeClass(meta.bytes)]
		if b == nil {
			b = &bucketAgg{}
			st.buckets[sizeClass(meta.bytes)] = b
		}
		b.contexts++
	}
}

// sizeClass buckets a context size to the nearest power of two.
func sizeClass(bytes uint64) uint64 {
	if bytes == 0 {
		return 0
	}
	cls := uint64(1)
	for cls < bytes {
		cls <<= 1
	}
	return cls
}
