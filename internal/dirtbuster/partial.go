// Chunked offline analysis: AnalyzeTrace re-cast as map(chunks) →
// reduce(partials) so DirtBuster scales past traces that fit in one
// buffer and across worker shards.
//
// The pipeline runs in two passes over the chunks, mirroring the
// paper's step structure:
//
//	pass 1  Stats     per-chunk function load/store/cycle aggregates;
//	                  pure sums, so Merge is commutative AND
//	                  associative in any order.
//	        Plan      step 1 (ranking, write-intensity, the monitored
//	                  set) computed once from the merged Stats.
//	pass 2  Partial   per-chunk event tape: the filtered records steps
//	                  2–3 react to (loads, fences, atomics, stores of
//	                  monitored functions). Merge splices tapes by
//	                  chunk-index range — associative by construction.
//	        Analysis  replays the merged tape, in chunk order, through
//	                  the identical state machine the monolithic path
//	                  uses, so the final Report is byte-identical.
//
// The per-line last-touch state of steps 2–3 is deliberately NOT
// summarized per chunk: sequentiality contexts extend across chunk
// boundaries and are matched in replay order, so a compact mergeable
// summary cannot reproduce the exact context structure. The tape keeps
// only the records the analysis consumes — typically a small fraction
// of a chunk — and the reduce replays them, which preserves exactness
// while the expensive work (decode, filtering, step-1 aggregation)
// parallelizes freely.
package dirtbuster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strings"

	"prestores/internal/core"
	"prestores/internal/profile"
	"prestores/internal/sim"
	"prestores/internal/trace"
)

// FnAgg is one function's pass-1 aggregate.
type FnAgg struct {
	Ops         uint64 `json:"ops"` // records of every kind
	Loads       uint64 `json:"loads"`
	Stores      uint64 `json:"stores"` // includes non-temporal stores and atomics
	Cycles      uint64 `json:"cycles"`
	StoreCycles uint64 `json:"store_cycles"`
}

// Stats is the associative pass-1 aggregate of a set of chunks:
// everything step 1 needs, and nothing order-dependent.
type Stats struct {
	Fns         map[string]FnAgg `json:"fns"`
	TotalCycles uint64           `json:"total_cycles"`
	StoreCycles uint64           `json:"store_cycles"`
	MaxCore     int              `json:"max_core"`
	Records     uint64           `json:"records"`
}

// NewStats returns an empty aggregate.
func NewStats() *Stats { return &Stats{Fns: map[string]FnAgg{}} }

// AddRecord folds one record in. The signature matches the
// trace.Buffer.Replay callback.
func (s *Stats) AddRecord(r trace.Record, fn string) {
	if int(r.Core) > s.MaxCore {
		s.MaxCore = int(r.Core)
	}
	s.Records++
	s.TotalCycles += r.Cost
	a := s.Fns[fn]
	a.Ops++
	a.Cycles += r.Cost
	switch r.Kind {
	case sim.OpLoad:
		a.Loads++
	case sim.OpStore, sim.OpStoreNT, sim.OpAtomic:
		a.Stores++
		a.StoreCycles += r.Cost
		s.StoreCycles += r.Cost
	}
	s.Fns[fn] = a
}

// AddChunk folds one chunk in.
func (s *Stats) AddChunk(c *trace.Chunk) {
	for _, r := range c.Records {
		s.AddRecord(r, c.FuncName(r.Fn))
	}
}

// Merge folds another aggregate in. All fields are sums or maxima, so
// merge order never matters.
func (s *Stats) Merge(o *Stats) {
	if o == nil {
		return
	}
	for fn, oa := range o.Fns {
		a := s.Fns[fn]
		a.Ops += oa.Ops
		a.Loads += oa.Loads
		a.Stores += oa.Stores
		a.Cycles += oa.Cycles
		a.StoreCycles += oa.StoreCycles
		s.Fns[fn] = a
	}
	s.TotalCycles += o.TotalCycles
	s.StoreCycles += o.StoreCycles
	if o.MaxCore > s.MaxCore {
		s.MaxCore = o.MaxCore
	}
	s.Records += o.Records
}

// StatsOf runs pass 1 alone: the merged aggregate of every chunk it
// yields.
func StatsOf(it ChunkIter) (*Stats, error) {
	s := NewStats()
	err := trace.ForEach(it, func(c *trace.Chunk) error {
		s.AddChunk(c)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// RenderProfile renders the perf-report-style per-function time
// profile: functions by cycles, with their share of the trace's time,
// the share of their own cycles spent storing, and their op count.
func (s *Stats) RenderProfile() string {
	fns := make([]string, 0, len(s.Fns))
	for fn := range s.Fns {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool {
		a, b := s.Fns[fns[i]], s.Fns[fns[j]]
		if a.Cycles != b.Cycles {
			return a.Cycles > b.Cycles
		}
		return fns[i] < fns[j]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %10s %8s %8s %8s\n", "function", "cycles", "time%", "store%", "ops")
	for _, fn := range fns {
		a := s.Fns[fn]
		var timeShare, storePct float64
		if s.TotalCycles > 0 {
			timeShare = float64(a.Cycles) / float64(s.TotalCycles)
		}
		if a.Cycles > 0 {
			storePct = 100 * float64(a.StoreCycles) / float64(a.Cycles)
		}
		if fn == "" {
			fn = "(untagged)"
		}
		fmt.Fprintf(&b, "%-32s %10d %7.1f%% %7.1f%% %8d\n", fn, a.Cycles, timeShare*100, storePct, a.Ops)
	}
	return b.String()
}

// Plan is the step-1 outcome: the function ranking, the
// write-intensity verdict and the monitored set that pass 2 filters
// against. It is JSON-round-trippable so a coordinator can ship it to
// worker shards (Go's shortest-roundtrip float encoding keeps the
// store shares exact).
type Plan struct {
	App            string             `json:"app"`
	Config         Config             `json:"config"`
	LineSize       uint64             `json:"line_size"`
	Cores          int                `json:"cores"`
	StoreShare     float64            `json:"store_share"`
	WriteIntensive bool               `json:"write_intensive"`
	Ranked         []profile.FuncStat `json:"ranked,omitempty"`
	Monitored      map[string]float64 `json:"monitored,omitempty"` // name → store share
}

// Plan computes step 1 from the merged aggregates, exactly as the
// monolithic AnalyzeTrace did.
func (s *Stats) Plan(app string, lineSize uint64, cfg Config) *Plan {
	cfg.fillDefaults()
	p := &Plan{App: app, Config: cfg, LineSize: lineSize, Cores: s.MaxCore + 1}
	if s.TotalCycles > 0 {
		p.StoreShare = float64(s.StoreCycles) / float64(s.TotalCycles)
	}
	p.WriteIntensive = p.StoreShare >= cfg.WriteIntensiveShare

	ranked := make([]profile.FuncStat, 0, len(s.Fns))
	var totalStores uint64
	for _, a := range s.Fns {
		totalStores += a.Stores
	}
	for fn, a := range s.Fns {
		fs := profile.FuncStat{Fn: fn, Loads: a.Loads, Stores: a.Stores}
		if totalStores > 0 {
			fs.StoreShare = float64(a.Stores) / float64(totalStores)
		}
		ranked = append(ranked, fs)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Stores != ranked[j].Stores {
			return ranked[i].Stores > ranked[j].Stores
		}
		return ranked[i].Fn < ranked[j].Fn
	})
	p.Ranked = ranked

	if p.WriteIntensive {
		p.Monitored = make(map[string]float64)
		for i, fs := range ranked {
			if i == cfg.TopFunctions || fs.Stores == 0 {
				break
			}
			p.Monitored[fs.Fn] = fs.StoreShare
		}
	}
	return p
}

// baseReport builds the report skeleton, including the full function
// list when the application is not write-intensive and steps 2–3 are
// skipped.
func (p *Plan) baseReport() *Report {
	rep := &Report{App: p.App, Config: p.Config, StoreShare: p.StoreShare, WriteIntensive: p.WriteIntensive}
	if !p.WriteIntensive {
		for i, fs := range p.Ranked {
			if i == p.Config.TopFunctions {
				break
			}
			rep.Functions = append(rep.Functions, FuncReport{
				Name:       fs.Fn,
				StoreShare: fs.StoreShare,
				Choice:     core.NoPrestore,
				Reason:     "application is not write-intensive",
			})
		}
	}
	return rep
}

// span is a tape over a contiguous range of chunks: the filtered
// records of chunks first..last, with their own interned name table.
type span struct {
	first, last int
	fns         []string
	ids         map[string]uint32
	recs        []trace.Record
}

func (s *span) intern(fn string) uint32 {
	if s.ids == nil {
		s.ids = make(map[string]uint32, len(s.fns))
		for i, name := range s.fns {
			s.ids[name] = uint32(i)
		}
	}
	if id, ok := s.ids[fn]; ok {
		return id
	}
	id := uint32(len(s.fns))
	s.ids[fn] = id
	s.fns = append(s.fns, fn)
	return id
}

// absorb appends a directly adjacent span (o.first == s.last+1).
func (s *span) absorb(o *span) {
	for _, r := range o.recs {
		r.Fn = s.intern(o.fns[r.Fn])
		s.recs = append(s.recs, r)
	}
	s.last = o.last
}

// Partial is the pass-2 map output for a set of chunks: the event tape
// steps 2–3 will replay, keyed by chunk-index ranges. Merging splices
// ranges together, so partials combine in any order — including
// shuffled, single-record and empty chunks — and always reduce to the
// same tape.
type Partial struct {
	spans []span
}

// AnalyzeChunk maps one chunk to its partial: the records the
// steps-2/3 state machine consumes. Loads, fences and atomics are
// always kept (they clear and classify per-line state regardless of
// function); stores only for monitored functions; everything else —
// compute, function enter/exit, pre-store ops — is dropped, exactly
// the kinds the analysis hook ignores.
func (p *Plan) AnalyzeChunk(c *trace.Chunk) *Partial {
	sp := span{first: c.Index, last: c.Index}
	for _, r := range c.Records {
		switch r.Kind {
		case sim.OpStore, sim.OpStoreNT:
			fn := c.FuncName(r.Fn)
			if _, ok := p.Monitored[fn]; !ok {
				continue
			}
			r.Fn = sp.intern(fn)
		case sim.OpLoad, sim.OpFence, sim.OpAtomic:
			r.Fn = sp.intern("")
		default:
			continue
		}
		sp.recs = append(sp.recs, r)
	}
	return &Partial{spans: []span{sp}}
}

// Chunks returns the covered chunk-index ranges, for diagnostics.
func (pt *Partial) Chunks() [][2]int {
	out := make([][2]int, 0, len(pt.spans))
	for _, sp := range pt.spans {
		out = append(out, [2]int{sp.first, sp.last})
	}
	return out
}

// Records returns the total tape length.
func (pt *Partial) Records() int {
	n := 0
	for _, sp := range pt.spans {
		n += len(sp.recs)
	}
	return n
}

// Merge folds another partial in. The operation is associative and
// commutative: spans are keyed by chunk-index ranges, kept sorted and
// coalesced when adjacent. Overlapping ranges mean the same chunk was
// analyzed twice into the same reduction — an orchestration bug — and
// fail loudly. o must not be used afterward.
func (pt *Partial) Merge(o *Partial) error {
	if o == nil {
		return nil
	}
	all := append(pt.spans, o.spans...)
	sort.Slice(all, func(i, j int) bool { return all[i].first < all[j].first })
	out := all[:0]
	for i := range all {
		if len(out) == 0 {
			out = append(out, all[i])
			continue
		}
		cur := &out[len(out)-1]
		switch {
		case all[i].first <= cur.last:
			return fmt.Errorf("dirtbuster: partial ranges [%d,%d] and [%d,%d] overlap",
				cur.first, cur.last, all[i].first, all[i].last)
		case all[i].first == cur.last+1:
			cur.absorb(&all[i])
		default:
			out = append(out, all[i])
		}
	}
	pt.spans = out
	return nil
}

// Analysis replays merged partials — or raw chunks — through the
// identical steps-2/3 state machine the live pipeline uses. Input must
// arrive in chunk order starting at chunk 0; partials merged out of
// order satisfy that automatically once they coalesce into a prefix.
type Analysis struct {
	plan *Plan
	an   *analysis
	next int // next expected chunk index
}

// NewAnalysis prepares the steps-2/3 replay for this plan.
func (p *Plan) NewAnalysis() *Analysis {
	monitored := make(map[string]*fnState, len(p.Monitored))
	for fn, share := range p.Monitored {
		monitored[fn] = &fnState{
			name:       fn,
			storeShare: share,
			buckets:    make(map[uint64]*bucketAgg),
		}
	}
	an := &analysis{cfg: p.Config, fns: monitored, lineSize: p.LineSize}
	cores := p.Cores
	if cores < 1 {
		cores = 1
	}
	an.cores = make([]coreState, cores)
	return &Analysis{plan: p, an: an}
}

func (a *Analysis) feed(r trace.Record, fn string) {
	a.an.hook(sim.Event{
		Core:  int(r.Core),
		Kind:  r.Kind,
		Addr:  r.Addr,
		Size:  r.Size,
		Fn:    fn,
		Instr: r.Instr,
	}, nil)
}

// Applied returns the number of leading chunks consumed so far.
func (a *Analysis) Applied() int { return a.next }

// AddChunk replays one raw chunk (the in-process fast path that skips
// building a Partial). Chunks must arrive in order.
func (a *Analysis) AddChunk(c *trace.Chunk) error {
	if c.Index != a.next {
		return fmt.Errorf("dirtbuster: chunk %d out of order, want %d", c.Index, a.next)
	}
	if c.MaxCore >= len(a.an.cores) {
		return fmt.Errorf("dirtbuster: chunk %d uses core %d beyond plan's %d cores", c.Index, c.MaxCore, len(a.an.cores))
	}
	for _, r := range c.Records {
		a.feed(r, c.FuncName(r.Fn))
	}
	a.next++
	return nil
}

// Apply replays a partial's tape. Its spans must continue exactly at
// the next unconsumed chunk index.
func (a *Analysis) Apply(pt *Partial) error {
	for i := range pt.spans {
		sp := &pt.spans[i]
		if sp.first != a.next {
			return fmt.Errorf("dirtbuster: partial covers chunks [%d,%d], want start %d", sp.first, sp.last, a.next)
		}
		for _, r := range sp.recs {
			if int(r.Fn) >= len(sp.fns) || int(r.Core) >= len(a.an.cores) {
				return fmt.Errorf("dirtbuster: malformed partial record in chunks [%d,%d]", sp.first, sp.last)
			}
			a.feed(r, sp.fns[r.Fn])
		}
		a.next = sp.last + 1
	}
	return nil
}

// Report finalizes steps 2–3 and assembles the report. The result is
// byte-identical to the monolithic AnalyzeTrace on the same records.
func (a *Analysis) Report() *Report {
	rep := a.plan.baseReport()
	if !a.plan.WriteIntensive {
		return rep
	}
	a.an.finish()
	fns := make([]*fnState, 0, len(a.an.fns))
	for _, st := range a.an.fns {
		fns = append(fns, st)
	}
	sort.Slice(fns, func(i, j int) bool {
		if fns[i].storeShare != fns[j].storeShare {
			return fns[i].storeShare > fns[j].storeShare
		}
		return fns[i].name < fns[j].name
	})
	for _, st := range fns {
		rep.Functions = append(rep.Functions, st.report(a.plan.Config))
	}
	return rep
}

// Finish reduces one fully merged partial to the final report. The
// partial must cover a contiguous chunk range starting at 0 (any
// number of chunks, including none for a not-write-intensive plan).
func (p *Plan) Finish(pt *Partial) (*Report, error) {
	a := p.NewAnalysis()
	if p.WriteIntensive && pt != nil {
		if err := a.Apply(pt); err != nil {
			return nil, err
		}
	}
	return a.Report(), nil
}

// ChunkIter yields the chunks of a trace in order; trace.ChunkReader
// satisfies it.
type ChunkIter = trace.ChunkIter

// ChunkSource opens a fresh in-order pass over a trace's chunks. The
// two-pass pipeline calls it twice.
type ChunkSource func() (ChunkIter, error)

// AnalyzeChunkSource is the streaming, bounded-memory equivalent of
// AnalyzeTrace: two passes over the chunks, never holding more than
// one chunk in memory.
func AnalyzeChunkSource(app string, open ChunkSource, lineSize uint64, cfg Config) (*Report, error) {
	it, err := open()
	if err != nil {
		return nil, err
	}
	stats, err := StatsOf(it)
	if err != nil {
		return nil, err
	}
	plan := stats.Plan(app, lineSize, cfg)
	a := plan.NewAnalysis()
	if plan.WriteIntensive {
		if it, err = open(); err != nil {
			return nil, err
		}
		if err := trace.ForEach(it, a.AddChunk); err != nil {
			return nil, err
		}
	}
	return a.Report(), nil
}

// Partial wire codec: a small length-prefixed binary reusing the
// trace record format, so worker shards return partials compactly.
const partialMagic = 0x4c505350 // "PSPL"

const maxPartialSpans = 1 << 20

// Encode writes the partial in binary form.
func (pt *Partial) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], partialMagic)
	binary.LittleEndian.PutUint32(hdr[4:], 1) // version
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(pt.spans)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var b [4]byte
	u32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(b[:], v)
		_, err := bw.Write(b[:])
		return err
	}
	for _, sp := range pt.spans {
		if err := u32(uint32(sp.first)); err != nil {
			return err
		}
		if err := u32(uint32(sp.last)); err != nil {
			return err
		}
		if err := u32(uint32(len(sp.fns))); err != nil {
			return err
		}
		for _, name := range sp.fns {
			if err := u32(uint32(len(name))); err != nil {
				return err
			}
			if _, err := bw.WriteString(name); err != nil {
				return err
			}
		}
		if err := u32(uint32(len(sp.recs))); err != nil {
			return err
		}
		var rec [trace.RecordSize]byte
		for _, r := range sp.recs {
			trace.PutRecord(rec[:], r)
			if _, err := bw.Write(rec[:]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// DecodePartial reads a partial written by Encode, validating ranges
// and function ids so a corrupt payload fails here rather than during
// replay.
func DecodePartial(r io.Reader) (*Partial, error) {
	br := bufio.NewReader(r)
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != partialMagic {
		return nil, fmt.Errorf("dirtbuster: bad partial magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != 1 {
		return nil, fmt.Errorf("dirtbuster: unsupported partial version %d", v)
	}
	nSpans := binary.LittleEndian.Uint32(hdr[8:])
	if nSpans > maxPartialSpans {
		return nil, fmt.Errorf("dirtbuster: partial span count %d exceeds limit", nSpans)
	}
	var b [4]byte
	u32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(b[:]), nil
	}
	pt := &Partial{spans: make([]span, 0, min(int(nSpans), 1<<12))}
	for i := uint32(0); i < nSpans; i++ {
		first, err := u32()
		if err != nil {
			return nil, err
		}
		last, err := u32()
		if err != nil {
			return nil, err
		}
		if int(last) < int(first) || first > 1<<31 || last > 1<<31 {
			return nil, fmt.Errorf("dirtbuster: partial span range [%d,%d] invalid", first, last)
		}
		nFns, err := u32()
		if err != nil {
			return nil, err
		}
		if nFns > trace.MaxFuncs {
			return nil, fmt.Errorf("dirtbuster: partial function table size %d exceeds limit", nFns)
		}
		sp := span{first: int(first), last: int(last), fns: make([]string, 0, min(int(nFns), 1<<12))}
		for j := uint32(0); j < nFns; j++ {
			n, err := u32()
			if err != nil {
				return nil, err
			}
			if n > 1<<16 {
				return nil, fmt.Errorf("dirtbuster: partial function name length %d too large", n)
			}
			name := make([]byte, n)
			if _, err := io.ReadFull(br, name); err != nil {
				return nil, err
			}
			sp.fns = append(sp.fns, string(name))
		}
		nRecs, err := u32()
		if err != nil {
			return nil, err
		}
		sp.recs = make([]trace.Record, 0, min(int(nRecs), 1<<16))
		var rec [trace.RecordSize]byte
		for j := uint32(0); j < nRecs; j++ {
			if _, err := io.ReadFull(br, rec[:]); err != nil {
				return nil, err
			}
			rr := trace.GetRecord(rec[:])
			if int(rr.Fn) >= len(sp.fns) {
				return nil, fmt.Errorf("dirtbuster: partial record references function id %d outside table of %d", rr.Fn, len(sp.fns))
			}
			sp.recs = append(sp.recs, rr)
		}
		pt.spans = append(pt.spans, sp)
	}
	return pt, nil
}
