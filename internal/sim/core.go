package sim

import (
	"fmt"

	"prestores/internal/cache"
	"prestores/internal/flatmap"
	"prestores/internal/units"
)

// PrestoreOp selects the pre-store operation (paper §2).
type PrestoreOp int

const (
	// Demote moves data down the cache hierarchy: pending private
	// writes begin acquiring their lines in the background, and dirty
	// lines in private caches are pushed to the shared level
	// (cldemote / dc cvau).
	Demote PrestoreOp = iota
	// Clean writes dirty data back to memory but keeps it cached
	// (clwb). Write-backs drain in issue order, which is what restores
	// device-level sequentiality.
	Clean
)

// String returns the op name.
func (o PrestoreOp) String() string {
	switch o {
	case Demote:
		return "demote"
	case Clean:
		return "clean"
	default:
		return fmt.Sprintf("PrestoreOp(%d)", int(o))
	}
}

// CoreStats aggregates per-core counters.
type CoreStats struct {
	Loads     uint64
	Stores    uint64
	NTStores  uint64
	Fences    uint64
	Atomics   uint64
	Prestores uint64

	LoadL1Hits   uint64
	LoadL2Hits   uint64
	LoadLLCHits  uint64
	LoadMemFills uint64
	SBForwards   uint64
	Prefetches   uint64

	FenceStall units.Cycles // cycles stalled in fences/atomics waiting on drains
	SBStall    units.Cycles // cycles stalled on store-buffer capacity
}

// sbEntry is one store-buffer slot: a private, not-yet-visible write to
// one cache line.
type sbEntry struct {
	line    uint64
	started bool
	cleaned bool // a clwb was issued for this write generation
	issued  units.Cycles
	readyAt units.Cycles
}

// wcEntry tracks a non-temporal write-combining buffer.
type wcEntry struct {
	line uint64
	mask uint64 // 8-byte-chunk coverage bitmask
}

// Core is one simulated CPU core with private caches, a store buffer,
// and non-temporal write-combining buffers. Cores are not safe for
// concurrent use; parallelism is expressed with RunInterleaved.
type Core struct {
	m  *Machine
	id int

	now   units.Cycles
	instr uint64

	l1 *cache.Cache
	l2 *cache.Cache // nil when the machine has no private L2

	// sb holds the store buffer; the live entries are sb[sbHead:].
	// drainOldest advances sbHead instead of shifting the slice, and
	// sbAppend compacts the dead prefix away only when the backing
	// array fills — amortized O(1) per store instead of a full-buffer
	// copy per drain.
	sb     []sbEntry
	sbHead int
	// sbIndex maps a line to the sequence number of the newest store-
	// buffer entry for it, replacing the per-op linear scans. Sequence
	// numbers translate to slice positions via sbBase (the seq of
	// sb[sbHead]); entries whose seq has fallen below sbBase were
	// drained or fenced away and are treated as absent, so the index
	// never needs eager invalidation.
	sbIndex flatmap.Map[uint64]
	sbBase  uint64 // seq of sb[sbHead]

	drainSlots []units.Cycles // background drain engine (MLP-wide)
	loadSlots  []units.Cycles // load miss-queue slots (MLP-wide)

	wc []wcEntry // NT write-combining buffers, FIFO

	cleanBarrier units.Cycles // max accept time of any issued clwb/NT flush

	fnStack []string
	scratch []byte // Memcpy bounce buffer, reused across calls

	stats CoreStats
}

func newCore(m *Machine, id int) *Core {
	l1cfg := m.cfg.L1
	l1cfg.Seed = m.cfg.Seed ^ uint64(id)<<8 ^ 0x11
	c := &Core{
		m:          m,
		id:         id,
		l1:         cache.New(l1cfg),
		sb:         make([]sbEntry, 0, 2*m.cfg.SBEntries),
		drainSlots: make([]units.Cycles, m.cfg.MLP),
		loadSlots:  make([]units.Cycles, m.cfg.MLP),
	}
	if m.cfg.L2.Size > 0 {
		l2cfg := m.cfg.L2
		l2cfg.Seed = m.cfg.Seed ^ uint64(id)<<8 ^ 0x22
		c.l2 = cache.New(l2cfg)
	}
	return c
}

// sbLookup returns the position of the newest store-buffer entry for
// line, or -1. Index hits are validated against sbBase so that entries
// removed by drains or fences read as absent without the removal paths
// ever touching the map.
func (c *Core) sbLookup(line uint64) int {
	if len(c.sb) == c.sbHead {
		return -1
	}
	seq, ok := c.sbIndex.Get(line)
	if !ok || seq < c.sbBase {
		return -1
	}
	pos := c.sbHead + int(seq-c.sbBase)
	if pos >= len(c.sb) {
		return -1
	}
	return pos
}

// sbAppend adds a store-buffer entry and indexes it. The index holds
// stale keys for lines whose entries have drained; they are harmless
// (sbLookup rejects them) but are compacted away once enough pile up.
func (c *Core) sbAppend(e sbEntry) {
	if c.sbIndex.Len() >= 4096 {
		c.sbRebuildIndex()
	}
	if len(c.sb) == cap(c.sb) && c.sbHead > 0 {
		n := copy(c.sb, c.sb[c.sbHead:])
		c.sb = c.sb[:n]
		c.sbHead = 0
	}
	c.sbIndex.Put(e.line, c.sbBase+uint64(len(c.sb)-c.sbHead))
	c.sb = append(c.sb, e)
}

// sbRebuildIndex drops every stale key, re-indexing only live entries.
func (c *Core) sbRebuildIndex() {
	c.sbIndex.Clear()
	for i := c.sbHead; i < len(c.sb); i++ {
		c.sbIndex.Put(c.sb[i].line, c.sbBase+uint64(i-c.sbHead))
	}
}

// ID returns the core index.
func (c *Core) ID() int { return c.id }

// Now returns the core's cycle clock.
func (c *Core) Now() units.Cycles { return c.now }

// Instructions returns the core's retired-instruction counter.
func (c *Core) Instructions() uint64 { return c.instr }

// Stats returns the core's counters.
func (c *Core) Stats() CoreStats { return c.stats }

// L1 returns the core's private L1 (tests and stats).
func (c *Core) L1() *cache.Cache { return c.l1 }

// L2 returns the core's private L2, nil on a machine without one
// (tests and stats).
func (c *Core) L2() *cache.Cache { return c.l2 }

// Machine returns the owning machine.
func (c *Core) Machine() *Machine { return c.m }

func (c *Core) lineBase(addr uint64) uint64 {
	return units.AlignDown(addr, c.m.cfg.LineSize)
}

// emit delivers the op to the machine's hook. The un-hooked fast path
// is a single nil check — the wrapper stays within the inlining budget,
// so simulation without instrumentation pays no call and builds no
// Event.
func (c *Core) emit(kind OpKind, addr, size uint64, cost units.Cycles) {
	if c.m.hook != nil {
		c.emitHooked(kind, addr, size, cost)
	}
}

func (c *Core) emitHooked(kind OpKind, addr, size uint64, cost units.Cycles) {
	fn := ""
	if n := len(c.fnStack); n > 0 {
		fn = c.fnStack[n-1]
	}
	c.m.hook(Event{Core: c.id, Kind: kind, Addr: addr, Size: size, Fn: fn,
		Instr: c.instr, Cost: uint64(cost)}, c)
}

// emitMem delivers a memory-system event to the machine's mem hook,
// mirroring emit's split: the un-hooked fast path is one nil check and
// builds nothing.
func (c *Core) emitMem(kind MemEventKind, addr, size uint64, start, end units.Cycles) {
	if c.m.memHook != nil {
		c.emitMemHooked(kind, addr, size, start, end)
	}
}

func (c *Core) emitMemHooked(kind MemEventKind, addr, size uint64, start, end units.Cycles) {
	c.m.memHook(MemEvent{Core: c.id, Kind: kind, Addr: addr, Size: size,
		Start: start, End: end})
}

// enqueueWB submits a line write-back through the machine queue
// (advancing the core clock on back-pressure), announces it to the mem
// hook, and returns the device-accept completion cycle.
func (c *Core) enqueueWB(line uint64) units.Cycles {
	start := c.now
	var accept units.Cycles
	c.now, accept = c.m.wbq.enqueue(c.now, c.now, line, c.m.cfg.LineSize, c.m.deviceFor)
	c.emitMem(MemWriteBack, line, c.m.cfg.LineSize, start, accept)
	return accept
}

// PushFunc annotates subsequent operations as executing inside fn —
// the simulator's stand-in for the symbol information PIN and perf
// recover from binaries.
func (c *Core) PushFunc(fn string) {
	c.fnStack = append(c.fnStack, fn)
	c.emit(OpFuncEnter, 0, 0, 0)
}

// PopFunc leaves the innermost annotated function.
func (c *Core) PopFunc() {
	c.emit(OpFuncExit, 0, 0, 0)
	if n := len(c.fnStack); n > 0 {
		c.fnStack = c.fnStack[:n-1]
	}
}

// Callchain returns a copy of the current function-annotation stack,
// innermost last.
func (c *Core) Callchain() []string {
	return append([]string(nil), c.fnStack...)
}

// AppendCallchain appends the current annotation stack to buf, joined
// by sep, and returns the extended buffer. Samplers use it with a
// reused scratch buffer to render callchains without the per-sample
// slice copy Callchain makes.
func (c *Core) AppendCallchain(buf []byte, sep byte) []byte {
	for i, fn := range c.fnStack {
		if i > 0 {
			buf = append(buf, sep)
		}
		buf = append(buf, fn...)
	}
	return buf
}

// CurrentFunc returns the innermost function annotation, or "".
func (c *Core) CurrentFunc() string {
	if n := len(c.fnStack); n > 0 {
		return c.fnStack[n-1]
	}
	return ""
}

// Compute advances the core by n instructions of on-core work (1 IPC).
func (c *Core) Compute(n uint64) {
	c.now += n
	c.instr += n
	c.emit(OpCompute, 0, n, n)
}

//
// ----- Loads -----
//

// Read performs a timed load of len(buf) bytes at addr into buf.
// Loads spanning multiple lines overlap their fills up to the machine's
// memory-level parallelism, as hardware miss queues do.
func (c *Core) Read(addr uint64, buf []byte) {
	start := c.now
	c.m.backing.Read(addr, buf)
	c.readLines(addr, uint64(len(buf)))
	c.emit(OpLoad, addr, uint64(len(buf)), c.now-start)
}

// readLines performs the timing of a [addr, addr+n) load. A
// zero-length load touches no line and is free.
func (c *Core) readLines(addr, n uint64) {
	if n == 0 {
		return
	}
	end := addr + n
	first := c.lineBase(addr)
	if first+c.m.cfg.LineSize >= end {
		// Single-line load — the common case — skips the miss-queue
		// slot machinery entirely.
		c.now = c.loadLineAt(first, c.now)
		return
	}
	for i := range c.loadSlots {
		c.loadSlots[i] = c.now
	}
	seq := c.now
	maxDone := c.now
	for line := first; line < end; line += c.m.cfg.LineSize {
		si := 0
		for i := range c.loadSlots {
			if c.loadSlots[i] < c.loadSlots[si] {
				si = i
			}
		}
		start := seq
		if c.loadSlots[si] > start {
			start = c.loadSlots[si]
		}
		done := c.loadLineAt(line, start)
		c.loadSlots[si] = done
		if done > maxDone {
			maxDone = done
		}
		seq++ // issue slot
	}
	c.now = maxDone
}

// ReadU64 performs a timed 8-byte load. It bypasses the byte-slice
// path: the backing store reads the word directly.
func (c *Core) ReadU64(addr uint64) uint64 {
	start := c.now
	v := c.m.backing.ReadU64(addr)
	c.readLines(addr, 8)
	c.emit(OpLoad, addr, 8, c.now-start)
	return v
}

// loadLine accounts one line-granular load at the core's clock.
func (c *Core) loadLine(line uint64) {
	c.now = c.loadLineAt(line, c.now)
}

// loadLineAt accounts one line-granular load starting at cycle `at`,
// returning the completion cycle without touching the core clock.
func (c *Core) loadLineAt(line uint64, at units.Cycles) units.Cycles {
	c.stats.Loads++
	c.instr++
	// Store-buffer forwarding.
	if c.sbLookup(line) >= 0 {
		c.stats.SBForwards++
		return at + c.l1.HitLatency()
	}
	if c.l1.Touch(line, false) { // recency touch on hit
		c.stats.LoadL1Hits++
		return at + c.l1.HitLatency()
	}
	if c.l2 != nil && c.l2.Touch(line, false) {
		c.stats.LoadL2Hits++
		c.fillL1Absent(line, false)
		return at + c.l2.HitLatency()
	}
	// Shared level: coherence first. The line is now known absent from
	// both private levels, so the fills below can skip their probes.
	done, forwarded := c.m.dir.Read(at, c.id, line)
	switch {
	case c.m.llc.Touch(line, false):
		c.stats.LoadLLCHits++
		done += c.m.llc.HitLatency()
	case forwarded:
		// Dirty copy pulled from another core's private cache; the
		// owner keeps its (now shared) copy and will write it back on
		// eviction, so the LLC copy fills clean.
		c.stats.LoadLLCHits++
		done += c.m.llc.HitLatency()
		c.fillLLCAbsent(line, false)
	default:
		c.stats.LoadMemFills++
		fillStart := done + c.m.llc.HitLatency()
		done = c.m.deviceFor(line).ReadLine(fillStart, line, c.m.cfg.LineSize)
		c.emitMem(MemFill, line, c.m.cfg.LineSize, fillStart, done)
		c.fillLLCAbsent(line, false)
		c.prefetchAfter(line)
	}
	c.fillPrivateAbsent(line, false)
	return done
}

// prefetchAfter implements the next-line hardware prefetcher: a demand
// miss pulls the following lines into the LLC in the background. The
// fills consume device read bandwidth but do not stall the core —
// moving data *up* the hierarchy early, the mirror image of a
// pre-store.
func (c *Core) prefetchAfter(line uint64) {
	for i := 1; i <= c.m.cfg.PrefetchDepth; i++ {
		next := line + uint64(i)*c.m.cfg.LineSize
		if c.m.llc.Contains(next) {
			continue
		}
		c.stats.Prefetches++
		done := c.m.deviceFor(next).ReadLine(c.now, next, c.m.cfg.LineSize)
		c.emitMem(MemPrefetch, next, c.m.cfg.LineSize, c.now, done)
		c.fillLLCAbsent(next, false)
	}
}

//
// ----- Stores -----
//

// Write performs a timed store of data at addr. The store enters the
// store buffer; on eager-drain machines (x86) its cache-line
// acquisition begins immediately in the background, on lazy-drain
// machines (ARM) it stays private until a fence, a demote, or buffer
// capacity forces it out.
func (c *Core) Write(addr uint64, data []byte) {
	start := c.now
	c.m.backing.Write(addr, data)
	c.storeLines(addr, uint64(len(data)))
	c.emit(OpStore, addr, uint64(len(data)), c.now-start)
}

// storeLines times a store over [addr, addr+n): the single-line common
// case issues directly, multi-line stores walk the span.
func (c *Core) storeLines(addr, n uint64) {
	first := c.lineBase(addr)
	end := addr + n
	if first >= end {
		return
	}
	if first+c.m.cfg.LineSize >= end {
		c.storeLine(first)
		return
	}
	for line := first; line < end; line += c.m.cfg.LineSize {
		c.storeLine(line)
	}
}

// WriteU64 performs a timed 8-byte store. It bypasses the byte-slice
// path: the backing store writes the word directly.
func (c *Core) WriteU64(addr, v uint64) {
	start := c.now
	c.m.backing.WriteU64(addr, v)
	c.storeLines(addr, 8)
	c.emit(OpStore, addr, 8, c.now-start)
}

// Memset performs a timed fill of n bytes at addr.
func (c *Core) Memset(addr, n uint64, v byte) {
	start := c.now
	c.m.backing.Fill(addr, n, v)
	c.storeLines(addr, n)
	c.emit(OpStore, addr, n, c.now-start)
}

// Memcpy performs a timed copy of n bytes from src to dst.
func (c *Core) Memcpy(dst, src, n uint64) {
	start := c.now
	if uint64(cap(c.scratch)) < n {
		c.scratch = make([]byte, n)
	}
	buf := c.scratch[:n]
	c.m.backing.Read(src, buf)
	c.readLines(src, n)
	c.emit(OpLoad, src, n, c.now-start)
	start = c.now
	c.m.backing.Write(dst, buf)
	c.storeLines(dst, n)
	c.emit(OpStore, dst, n, c.now-start)
}

func (c *Core) storeLine(line uint64) {
	c.stats.Stores++
	c.instr++
	c.now++ // issue cost
	// Coalesce with an existing buffer entry for the same line. A
	// cleaned entry belongs to the previous write generation — its
	// write-back is in flight — so a new store starts a new entry
	// (whose commit then waits for that write-back). Only the newest
	// entry per line can be uncleaned, so the index decides.
	if i := c.sbLookup(line); i >= 0 && !c.sb[i].cleaned {
		return
	}
	if len(c.sb)-c.sbHead >= c.m.cfg.SBEntries {
		c.drainOldest()
	}
	c.sbAppend(sbEntry{line: line, issued: c.now})
	if c.m.cfg.Drain == DrainEager {
		c.startEntry(&c.sb[len(c.sb)-1], c.now)
	}
}

// drainOldest retires the oldest store-buffer entry, stalling the core
// until its line acquisition completes.
func (c *Core) drainOldest() {
	e := &c.sb[c.sbHead]
	if !e.started {
		at := c.now
		if t := e.issued + c.m.cfg.LazyDrainAge; t < at {
			at = t
		}
		c.startEntry(e, at)
	}
	if e.readyAt > c.now {
		c.stats.SBStall += e.readyAt - c.now
		c.emitMem(MemSBDrain, e.line, c.m.cfg.LineSize, c.now, e.readyAt)
		c.now = e.readyAt
	}
	c.sbHead++
	c.sbBase++
	if c.sbHead == len(c.sb) {
		c.sb = c.sb[:0]
		c.sbHead = 0
	}
}

// startEntry begins the background acquisition (RFO + fill) of a store
// buffer entry's line through one of the MLP-wide drain slots.
func (c *Core) startEntry(e *sbEntry, at units.Cycles) {
	si := 0
	for i := range c.drainSlots {
		if c.drainSlots[i] < c.drainSlots[si] {
			si = i
		}
	}
	start := at
	if c.drainSlots[si] > start {
		start = c.drainSlots[si]
	}
	e.readyAt = c.acquireLine(start, e.line)
	c.drainSlots[si] = e.readyAt
	e.started = true
}

// acquireLine obtains the line in writable state in the L1, charging
// directory and fill costs starting at cycle `at`, and returns the
// completion cycle. Cache state mutates immediately (the simulator is
// single-threaded; only timing is deferred).
func (c *Core) acquireLine(at units.Cycles, line uint64) units.Cycles {
	// A line with an in-flight write-back cannot grant write permission
	// until the write-back is accepted downstream.
	if t := c.m.wbq.inflightUntil(line); t > at {
		at = t
	}
	excl, sharer := c.m.dir.Holds(c.id, line)
	if excl && c.l1.Touch(line, true) {
		return at + c.l1.HitLatency()
	}
	done, _ := c.m.dir.Write(at, c.id, line)
	switch {
	// A clear sharer bit proves the line absent from both private
	// levels, letting the RFO skip their tag probes entirely.
	case sharer && c.l1.Contains(line):
		done += c.l1.HitLatency()
		c.fillPrivate(line, true)
	case sharer && c.l2 != nil && c.l2.Contains(line):
		done += c.l2.HitLatency()
		if ev, evicted := c.l2.Insert(line, false); evicted {
			c.handlePrivateEvict(ev)
		}
		c.fillL1Absent(line, true)
	case c.m.llc.Touch(line, false):
		done += c.m.llc.HitLatency()
		c.fillPrivateAbsent(line, true)
	default:
		// Write-allocate: the line must be read from memory before it
		// can be partially updated (paper §4.2: "it needs to read the
		// full cache line prior to updating it").
		fillStart := done + c.m.llc.HitLatency()
		done = c.m.deviceFor(line).ReadLine(fillStart, line, c.m.cfg.LineSize)
		c.emitMem(MemFill, line, c.m.cfg.LineSize, fillStart, done)
		c.fillLLCAbsent(line, false)
		c.prefetchAfter(line) // L2 prefetchers also train on RFO misses
		c.fillPrivateAbsent(line, true)
	}
	return done
}

//
// ----- Cache fill/evict plumbing -----
//

// fillPrivate inserts the line into the private levels (dirty or not),
// cascading evictions downward. Callers that have just probed the
// private levels and missed use fillPrivateAbsent, which skips the
// redundant tag lookups.
func (c *Core) fillPrivate(line uint64, dirty bool) {
	if c.l2 != nil {
		if ev, evicted := c.l2.Insert(line, false); evicted {
			c.handlePrivateEvict(ev)
		}
	}
	c.fillL1(line, dirty)
}

// fillPrivateAbsent is fillPrivate for a line known absent from both
// private levels.
func (c *Core) fillPrivateAbsent(line uint64, dirty bool) {
	if c.l2 != nil {
		if ev, evicted := c.l2.Fill(line, false); evicted {
			c.handlePrivateEvict(ev)
		}
	}
	c.fillL1Absent(line, dirty)
}

func (c *Core) fillL1(line uint64, dirty bool) {
	ev, evicted := c.l1.Insert(line, dirty)
	if evicted {
		c.l1Evicted(ev)
	}
}

// fillL1Absent is fillL1 for a line known absent from the L1.
func (c *Core) fillL1Absent(line uint64, dirty bool) {
	ev, evicted := c.l1.Fill(line, dirty)
	if evicted {
		c.l1Evicted(ev)
	}
}

// l1Evicted absorbs an L1 victim into the L2 (or the shared level when
// the machine has no private L2).
func (c *Core) l1Evicted(ev cache.Eviction) {
	if c.l2 != nil {
		if ev2, e2 := c.l2.Insert(ev.Addr, ev.Dirty); e2 {
			c.handlePrivateEvict(ev2)
		}
		return
	}
	c.handlePrivateEvict(ev)
}

// handlePrivateEvict absorbs an eviction out of the last private level
// (the L2, or the L1 when the machine has no private L2) into the
// shared LLC. The level that evicted the line no longer holds it, so
// only the other private level is probed before the directory drops
// the core as a sharer.
func (c *Core) handlePrivateEvict(ev cache.Eviction) {
	if c.l2 == nil || !c.l1.Contains(ev.Addr) {
		c.m.dir.Evicted(c.id, ev.Addr)
	}
	c.insertLLC(ev.Addr, ev.Dirty)
}

// insertLLC inserts a line into the shared LLC, writing back any dirty
// victim. This is where the replacement policy's "random" victim order
// becomes the device's write-back order — the root of Problem #1.
func (c *Core) insertLLC(line uint64, dirty bool) {
	if ev, evicted := c.m.llc.Insert(line, dirty); evicted {
		if ev.Dirty {
			c.enqueueWB(ev.Addr)
		} else {
			c.emitMem(MemEvict, ev.Addr, c.m.cfg.LineSize, c.now, c.now)
		}
	}
}

// fillLLCAbsent is insertLLC for a line known absent from the LLC.
func (c *Core) fillLLCAbsent(line uint64, dirty bool) {
	if ev, evicted := c.m.llc.Fill(line, dirty); evicted {
		if ev.Dirty {
			c.enqueueWB(ev.Addr)
		} else {
			c.emitMem(MemEvict, ev.Addr, c.m.cfg.LineSize, c.now, c.now)
		}
	}
}

//
// ----- Fences and atomics -----
//

// Fence executes a full memory fence: every buffered store must become
// globally visible, every outstanding clwb and non-temporal write must
// be accepted, before the core proceeds.
func (c *Core) Fence() {
	start := c.now
	c.stats.Fences++
	c.instr++
	c.fenceInternal()
	c.emit(OpFence, 0, 0, c.now-start)
}

func (c *Core) fenceInternal() {
	start := c.now
	done := c.now
	// Publish buffered stores. On lazy-drain machines an entry that
	// has sat in the buffer longer than the drain age already began
	// its publication in the background — even weak-memory CPUs retire
	// old write-buffer entries when the interconnect is idle — so its
	// start time is backdated accordingly.
	for i := c.sbHead; i < len(c.sb); i++ {
		e := &c.sb[i]
		if !e.started {
			at := c.now
			if t := e.issued + c.m.cfg.LazyDrainAge; t < at {
				at = t
			}
			c.startEntry(e, at)
		}
		if e.readyAt > done {
			done = e.readyAt
		}
	}
	c.sbBase += uint64(len(c.sb) - c.sbHead)
	c.sb = c.sb[:0]
	c.sbHead = 0
	// Flush NT write-combining buffers and wait for their acceptance.
	if t := c.flushWC(); t > done {
		done = t
	}
	// Wait for outstanding clwb acceptances (sfence orders clwb).
	if c.cleanBarrier > done {
		done = c.cleanBarrier
	}
	if done > c.now {
		c.now = done
	}
	c.stats.FenceStall += c.now - start
}

// CAS performs a compare-and-swap on the 8 bytes at addr with full
// fence semantics, returning whether the swap happened. The target
// line's acquisition overlaps the store-buffer drain, as hardware
// overlaps the locked instruction's RFO with outstanding stores.
func (c *Core) CAS(addr, old, new uint64) bool {
	start := c.now
	c.stats.Atomics++
	c.instr++
	c.atomicTiming(addr)
	cur := c.m.backing.ReadU64(addr)
	ok := cur == old
	if ok {
		c.m.backing.WriteU64(addr, new)
		c.l1.Access(c.lineBase(addr), true)
	}
	c.emit(OpAtomic, addr, 8, c.now-start)
	return ok
}

// AtomicAdd performs a fetch-and-add on the 8 bytes at addr with full
// fence semantics, returning the new value.
func (c *Core) AtomicAdd(addr, delta uint64) uint64 {
	start := c.now
	c.stats.Atomics++
	c.instr++
	c.atomicTiming(addr)
	v := c.m.backing.ReadU64(addr) + delta
	c.m.backing.WriteU64(addr, v)
	c.l1.Access(c.lineBase(addr), true)
	c.emit(OpAtomic, addr, 8, c.now-start)
	return v
}

// atomicTiming charges the cost of an atomic read-modify-write: the
// target line is acquired exclusively while the store buffer drains in
// parallel; the operation completes when both are done.
func (c *Core) atomicTiming(addr uint64) {
	acqDone := c.acquireLine(c.now, c.lineBase(addr))
	c.fenceInternal()
	if acqDone > c.now {
		c.stats.FenceStall += acqDone - c.now
		c.now = acqDone
	}
}

//
// ----- Pre-stores and non-temporal stores -----
//

// Prestore issues a pre-store over [addr, addr+size) (paper §2): a
// non-blocking instruction directing the CPU to move the data down the
// memory hierarchy. Demote publishes pending private writes and pushes
// dirty private lines to the shared level; Clean additionally writes
// dirty lines back to memory (keeping them cached).
func (c *Core) Prestore(addr, size uint64, op PrestoreOp) {
	start := c.now
	end := addr + size
	for line := c.lineBase(addr); line < end; line += c.m.cfg.LineSize {
		c.stats.Prestores++
		c.instr++
		c.now++ // ~1-cycle issue cost (paper §5)
		switch {
		case op == Demote:
			c.demoteLine(line)
		case c.m.cfg.CleanToPOU:
			// ARM's dc cvau cleans to the point of unification — the
			// shared cache level, not the device (paper §2).
			c.demoteLine(line)
		default:
			c.cleanLine(line)
		}
	}
	if op == Demote {
		c.emit(OpPrestoreDemote, addr, size, c.now-start)
	} else {
		c.emit(OpPrestoreClean, addr, size, c.now-start)
	}
}

// demoteLine starts background publication of any buffered store to the
// line and pushes a dirty private copy down to the shared level.
func (c *Core) demoteLine(line uint64) {
	// Only the newest buffered entry for a line can be unstarted: older
	// duplicates were cleaned, and cleaning starts them.
	if i := c.sbLookup(line); i >= 0 && !c.sb[i].started {
		c.startEntry(&c.sb[i], c.now)
	}
	// Invalidate reports presence itself, so no pre-probe is needed.
	if present, dirty := c.l1.Invalidate(line); present {
		c.insertLLC(line, dirty)
	}
	if c.l2 != nil {
		if present, dirty := c.l2.Invalidate(line); present {
			c.insertLLC(line, dirty)
		}
	}
	c.m.dir.Downgrade(c.id, line)
}

// cleanLine initiates a write-back of the line's dirty data (wherever
// it is cached) while keeping the line cached — clwb semantics. If the
// line's store is still buffered, its publication is started and the
// entry is marked cleaned: a later store to the same line begins a new
// write generation whose commit waits for this write-back (the
// serialization behind Listing 3's slowdown).
func (c *Core) cleanLine(line uint64) {
	at := c.now
	dirty := false
	// Only the newest buffered entry for a line can be uncleaned (see
	// demoteLine), so the index lookup replaces the scan.
	if i := c.sbLookup(line); i >= 0 && !c.sb[i].cleaned {
		if !c.sb[i].started {
			c.startEntry(&c.sb[i], c.now)
		}
		if c.sb[i].readyAt > at {
			at = c.sb[i].readyAt
		}
		dirty = true
		c.sb[i].cleaned = true
	}
	if c.l1.CleanLine(line) {
		dirty = true
	}
	if c.l2 != nil && c.l2.CleanLine(line) {
		dirty = true
	}
	if c.m.llc.CleanLine(line) {
		dirty = true
	}
	if !dirty {
		return
	}
	accept := c.enqueueWB(line)
	if at > accept {
		accept = at // data not committed before the acquisition finishes
	}
	c.addCleanPending(accept)
	c.m.dir.Downgrade(c.id, line)
}

// addCleanPending records an outstanding clwb accept. A fence must wait
// for every outstanding clwb, which is exactly the maximum accept time
// issued so far (completed ones are in the past and delay nothing), so
// a single monotonic barrier suffices.
func (c *Core) addCleanPending(accept units.Cycles) {
	if accept > c.cleanBarrier {
		c.cleanBarrier = accept
	}
}

// WriteNT performs a non-temporal store ("skipping the cache", §5):
// data goes to memory through write-combining buffers without being
// cached; any cached copy is flushed and invalidated first.
func (c *Core) WriteNT(addr uint64, data []byte) {
	start := c.now
	c.m.backing.Write(addr, data)
	end := addr + uint64(len(data))
	for line := c.lineBase(addr); line < end; line += c.m.cfg.LineSize {
		lo, hi := addr, end
		if lo < line {
			lo = line
		}
		if hi > line+c.m.cfg.LineSize {
			hi = line + c.m.cfg.LineSize
		}
		c.ntStoreLine(line, lo, hi)
	}
	c.emit(OpStoreNT, addr, uint64(len(data)), c.now-start)
}

func (c *Core) ntStoreLine(line, lo, hi uint64) {
	c.stats.NTStores++
	c.instr++
	c.now++
	// An NT store to a cached line flushes and invalidates the copy.
	c.evictEverywhere(line)
	// Find or allocate a write-combining buffer for the line.
	idx := -1
	for i := range c.wc {
		if c.wc[i].line == line {
			idx = i
			break
		}
	}
	if idx < 0 {
		if len(c.wc) >= c.m.cfg.WCEntries {
			c.flushWCEntry(0)
		}
		c.wc = append(c.wc, wcEntry{line: line})
		idx = len(c.wc) - 1
	}
	for b := units.AlignDown(lo, 8); b < hi; b += 8 {
		c.wc[idx].mask |= 1 << ((b - line) / 8)
	}
	full := uint64(1)<<(c.m.cfg.LineSize/8) - 1
	if c.m.cfg.LineSize >= 512 {
		full = ^uint64(0)
	}
	if c.wc[idx].mask == full {
		c.flushWCEntry(idx)
	}
}

// evictEverywhere flushes (if dirty) and invalidates the line from all
// cache levels and the store buffer.
func (c *Core) evictEverywhere(line uint64) {
	removed := false
	for i := c.sbHead; i < len(c.sb); i++ {
		if c.sb[i].line == line {
			c.sb = append(c.sb[:i], c.sb[i+1:]...)
			removed = true
			i--
		}
	}
	if removed {
		// Mid-buffer removal shifts every later entry, so seq->position
		// arithmetic no longer holds; rebuild the index. NT stores are
		// rare relative to buffer operations, and the buffer is small.
		c.sbRebuildIndex()
	}
	wasDirty := false
	if _, d := c.l1.Invalidate(line); d {
		wasDirty = true
	}
	if c.l2 != nil {
		if _, d := c.l2.Invalidate(line); d {
			wasDirty = true
		}
	}
	if _, d := c.m.llc.Invalidate(line); d {
		wasDirty = true
	}
	if wasDirty {
		c.enqueueWB(line)
	}
	c.m.dir.Evicted(c.id, line)
}

// flushWCEntry streams write-combining buffer i to memory and returns
// the device-accept completion.
func (c *Core) flushWCEntry(i int) units.Cycles {
	e := c.wc[i]
	c.wc = append(c.wc[:i], c.wc[i+1:]...)
	accept := c.enqueueWB(e.line)
	c.addCleanPending(accept)
	return accept
}

// flushWC flushes all write-combining buffers, returning the last
// device-accept time.
func (c *Core) flushWC() units.Cycles {
	var last units.Cycles
	for len(c.wc) > 0 {
		if t := c.flushWCEntry(0); t > last {
			last = t
		}
	}
	return last
}
