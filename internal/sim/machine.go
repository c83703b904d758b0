package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"prestores/internal/cache"
	"prestores/internal/coherence"
	"prestores/internal/flatmap"
	"prestores/internal/memdev"
	"prestores/internal/memspace"
	"prestores/internal/units"
)

// retiredOps counts simulated operations (retired instructions) across
// every machine in the process. The bench harness samples it around an
// experiment to compute host-side simulation throughput (simulated
// ops per wall-clock second). Cores count locally and machines flush
// in bulk at Drain/ResetStats, so the hot path never touches the
// atomic.
var retiredOps atomic.Uint64

// RetiredOps returns the process-wide count of simulated operations
// flushed so far. Deltas around an experiment measure simulator
// throughput; with concurrent experiments the deltas attribute each
// other's ops, so per-experiment numbers are exact only when runs do
// not overlap.
func RetiredOps() uint64 { return retiredOps.Load() }

// Machine is a complete simulated system: cores, caches, directory,
// write-back queue, devices, and the byte-addressable backing store.
type Machine struct {
	cfg     Config
	cores   []*Core
	llc     *cache.Cache
	dir     *coherence.Directory
	wbq     *wbQueue
	arena   *memspace.Arena
	backing *memspace.Store

	windows []WindowSpec // sorted by base
	lastWin int          // index into windows of the last deviceFor hit
	hook    Hook
	memHook MemHook

	opsFlushed uint64      // portion of core instr counters already in retiredOps
	opsSink    *OpsCounter // per-run counter receiving the same flushes, or nil
}

// NewMachine builds a machine from cfg. It panics on malformed
// configurations (overlapping windows, bad cache geometry) so that
// machine presets fail loudly.
func NewMachine(cfg Config) *Machine {
	fillDefaults(&cfg)
	if len(cfg.Windows) == 0 {
		panic("sim: machine needs at least one memory window")
	}
	m := &Machine{
		cfg:     cfg,
		arena:   memspace.NewArena(),
		backing: memspace.NewStore(),
	}
	m.windows = append(m.windows, cfg.Windows...)
	sort.Slice(m.windows, func(i, j int) bool { return m.windows[i].Base < m.windows[j].Base })
	for _, w := range cfg.Windows {
		if err := m.arena.AddWindow(w.Name, w.Base, w.Size); err != nil {
			panic(err)
		}
	}
	llcCfg := cfg.LLC
	llcCfg.Seed = cfg.Seed ^ 0xbeef
	m.llc = cache.New(llcCfg)
	m.dir = coherence.New(m.deviceFor)
	m.dir.OnDie = !cfg.DirOnDevice
	m.dir.OnInvalidate = func(core int, line uint64) {
		c := m.cores[core]
		c.l1.Invalidate(line)
		if c.l2 != nil {
			c.l2.Invalidate(line)
		}
	}
	m.wbq = &wbQueue{cap: cfg.WBQueueCap}
	for i := 0; i < cfg.Cores; i++ {
		m.cores = append(m.cores, newCore(m, i))
	}
	notifyMachineObservers(m)
	return m
}

// machineObservers holds callbacks notified of every machine built in
// the process. Experiments construct their machines internally, so
// external tooling (the telemetry recorder behind the CLI's -timeline
// flag) has no handle to call SetHook on; observers close that gap
// without threading a parameter through every experiment signature.
var (
	machineObsMu sync.Mutex
	machineObs   []*machineObserver
)

type machineObserver struct{ f func(*Machine) }

// ObserveMachines registers f to be called (synchronously, under the
// registry lock) with every Machine subsequently built by NewMachine,
// and returns a cancel function. Observers typically install hooks on
// the new machine. With concurrent experiments an observer sees
// machines from all of them; callers needing per-run isolation must
// serialize runs (or use a scoped mechanism such as the scenario
// layer's context observer).
func ObserveMachines(f func(*Machine)) (cancel func()) {
	o := &machineObserver{f: f}
	machineObsMu.Lock()
	machineObs = append(machineObs, o)
	machineObsMu.Unlock()
	return func() {
		machineObsMu.Lock()
		defer machineObsMu.Unlock()
		for i, x := range machineObs {
			if x == o {
				machineObs = append(machineObs[:i], machineObs[i+1:]...)
				break
			}
		}
	}
}

func notifyMachineObservers(m *Machine) {
	machineObsMu.Lock()
	defer machineObsMu.Unlock()
	for _, o := range machineObs {
		o.f(m)
	}
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Name returns the machine name.
func (m *Machine) Name() string { return m.cfg.Name }

// LineSize returns the CPU cache-line size.
func (m *Machine) LineSize() uint64 { return m.cfg.LineSize }

// Core returns core i.
func (m *Machine) Core(i int) *Core { return m.cores[i] }

// Cores returns the number of cores.
func (m *Machine) Cores() int { return len(m.cores) }

// LLC returns the shared last-level cache (for stats and tests).
func (m *Machine) LLC() *cache.Cache { return m.llc }

// Directory returns the coherence directory (for stats and ablations).
func (m *Machine) Directory() *coherence.Directory { return m.dir }

// Backing returns the byte-addressable backing store. Reads through it
// bypass all timing — use for test verification and workload setup.
func (m *Machine) Backing() *memspace.Store { return m.backing }

// Arena returns the region allocator.
func (m *Machine) Arena() *memspace.Arena { return m.arena }

// SetHook installs the instrumentation hook (nil removes it).
func (m *Machine) SetHook(h Hook) { m.hook = h }

// SetMemHook installs the memory-system event hook (nil removes it).
// Mem events are purely observational: installing a hook never changes
// simulated timing.
func (m *Machine) SetMemHook(h MemHook) { m.memHook = h }

// deviceFor returns the device serving addr. It panics on an address
// outside every window — that is a workload bug worth failing loudly.
// Accesses cluster heavily by window, so the last hit is checked first.
func (m *Machine) deviceFor(addr uint64) memdev.Device {
	if w := &m.windows[m.lastWin]; addr >= w.Base && addr < w.Base+w.Size {
		return w.Device
	}
	for i := range m.windows {
		w := &m.windows[i]
		if addr >= w.Base && addr < w.Base+w.Size {
			m.lastWin = i
			return w.Device
		}
	}
	panic(fmt.Sprintf("sim: address %#x outside every memory window", addr))
}

// Device returns the device serving the named window, or nil.
func (m *Machine) Device(window string) memdev.Device {
	for _, w := range m.cfg.Windows {
		if w.Name == window {
			return w.Device
		}
	}
	return nil
}

// Alloc carves a line-aligned region from the named window. The
// backing store installs an extent page table over the region so that
// address translation inside it skips the page hash map.
func (m *Machine) Alloc(window, name string, size uint64) memspace.Region {
	r := m.arena.MustAlloc(window, name, size, m.cfg.LineSize)
	m.backing.Reserve(r.Base, r.Size)
	return r
}

// AllocAligned carves a region with explicit alignment.
func (m *Machine) AllocAligned(window, name string, size, align uint64) memspace.Region {
	r := m.arena.MustAlloc(window, name, size, align)
	m.backing.Reserve(r.Base, r.Size)
	return r
}

// Drain completes all outstanding work: fences every core, flushes
// non-temporal buffers, drains the write-back queue and device write
// buffers. The completion time is charged back to every core's clock —
// deferred write-backs are real work, and experiments that measure
// elapsed time must not get them for free. Call before reading device
// statistics.
func (m *Machine) Drain() {
	for _, c := range m.cores {
		c.Fence()
	}
	var now units.Cycles
	for _, c := range m.cores {
		if c.now > now {
			now = c.now
		}
	}
	now = m.wbq.drainAll(now)
	for _, w := range m.cfg.Windows {
		if t := w.Device.Flush(now); t > now {
			now = t
		}
	}
	for _, c := range m.cores {
		c.now = now
	}
	m.flushOps()
}

// flushOps publishes the cores' retired-op counts into the process-wide
// throughput counter. Called at natural synchronization points so the
// per-op path stays atomic-free.
func (m *Machine) flushOps() {
	var total uint64
	for _, c := range m.cores {
		total += c.instr
	}
	if d := total - m.opsFlushed; d > 0 {
		retiredOps.Add(d)
		if m.opsSink != nil {
			m.opsSink.add(d)
		}
		m.opsFlushed = total
	}
}

// FlushCaches writes every dirty line in every cache level back to its
// device (in arbitrary, set-major order — like a wbinvd) and
// invalidates nothing. Used between experiment phases.
func (m *Machine) FlushCaches() {
	var now units.Cycles
	for _, c := range m.cores {
		c.Fence()
		if c.now > now {
			now = c.now
		}
	}
	flushLevel := func(cc *cache.Cache) {
		var lines []uint64
		cc.DirtyLines(func(addr uint64) { lines = append(lines, addr) })
		for _, addr := range lines {
			cc.CleanLine(addr)
			start := now
			var accept units.Cycles
			now, accept = m.wbq.enqueue(now, now, addr, m.cfg.LineSize, m.deviceFor)
			if m.memHook != nil {
				// Core -1: a machine-wide flush, not attributable to a core.
				m.memHook(MemEvent{Core: -1, Kind: MemWriteBack, Addr: addr,
					Size: m.cfg.LineSize, Start: start, End: accept})
			}
		}
	}
	for _, c := range m.cores {
		flushLevel(c.l1)
		if c.l2 != nil {
			flushLevel(c.l2)
		}
	}
	flushLevel(m.llc)
	m.Drain()
}

// ResetStats clears all cache, directory, device and queue counters
// (cache and device *contents* are preserved).
func (m *Machine) ResetStats() {
	for _, c := range m.cores {
		c.l1.ResetStats()
		if c.l2 != nil {
			c.l2.ResetStats()
		}
		c.stats = CoreStats{}
	}
	m.llc.ResetStats()
	m.dir.ResetStats()
	m.wbq.stalls = 0
	for _, w := range m.cfg.Windows {
		w.Device.ResetStats()
	}
	m.flushOps()
}

// MaxCycles returns the highest core clock — the elapsed simulated time
// of a parallel region when cores started from a common point.
func (m *Machine) MaxCycles() units.Cycles {
	var max units.Cycles
	for _, c := range m.cores {
		if c.now > max {
			max = c.now
		}
	}
	return max
}

// SyncCores advances every core's clock to the machine-wide maximum — a
// barrier, used between experiment phases.
func (m *Machine) SyncCores() {
	max := m.MaxCycles()
	for _, c := range m.cores {
		c.now = max
	}
}

// Seconds converts cycles to seconds at this machine's clock.
func (m *Machine) Seconds(c units.Cycles) float64 {
	return units.Seconds(c, m.cfg.Clock)
}

// wbQueue is the machine-wide write-back queue: CLWB cleans, dirty
// evictions and non-temporal streams pass through it to the devices.
// It drains in FIFO order — which is precisely why clean pre-stores
// issued in program order reach the device sequentially, while dirty
// evictions arrive in whatever order the replacement policy produced.
type wbQueue struct {
	cap      int
	pending  []units.Cycles            // device-accept completion times, FIFO
	inflight flatmap.Map[units.Cycles] // line base -> accept completion
	reapKeys []uint64                  // scratch for track's expiry sweep
	stalls   uint64                    // cycles cores stalled on a full queue
}

// enqueue submits a write-back of size bytes at line-aligned addr. The
// write-back is asynchronous: the issuing core proceeds immediately
// unless the queue is full, in which case it stalls until the oldest
// entry is accepted by its device — the back-pressure that turns write
// amplification into lost time. dataReady is the earliest cycle the
// line's data is available (e.g. a buffered store still completing its
// acquisition). It returns the core's (possibly advanced) clock and the
// device-accept completion cycle.
func (q *wbQueue) enqueue(coreNow, dataReady units.Cycles, addr, size uint64, dev func(uint64) memdev.Device) (units.Cycles, units.Cycles) {
	q.reap(coreNow)
	// A full queue exerts back-pressure: the core stalls until enough
	// older write-backs have been accepted downstream. Accept times are
	// not globally monotonic (cores with different clocks share the
	// queue across devices of different speeds), so one stall may not
	// free a slot — stall to each successive accept time rather than
	// dropping the oldest entry, which would under-count stalls and
	// break the capacity invariant.
	for q.cap > 0 && len(q.pending) >= q.cap {
		if wait := q.pending[0]; wait > coreNow {
			q.stalls += wait - coreNow
			coreNow = wait
		}
		q.reap(coreNow) // retires at least the oldest entry
	}
	start := coreNow
	if dataReady > start {
		start = dataReady
	}
	// Write-backs of the same line serialize: a new one cannot start
	// until the previous one has been accepted downstream. This chain
	// is what makes clean-then-rewrite loops run at memory-write
	// latency (the paper's Listing 3 measures ~75x).
	if t, _ := q.inflight.Get(addr); t > start {
		start = t
	}
	accept := dev(addr).WriteLine(start, addr, size)
	q.pending = append(q.pending, accept)
	q.track(addr, accept, coreNow)
	return coreNow, accept
}

// track records the accept time of an in-flight write-back so that a
// store to the same line can be made to wait for it (a store cannot
// regain write permission on a line while its write-back is in flight).
func (q *wbQueue) track(line uint64, accept, now units.Cycles) {
	if q.inflight.Len() > 1<<16 {
		q.reapKeys = q.reapKeys[:0]
		q.inflight.Range(func(l uint64, t units.Cycles) bool {
			if t <= now {
				q.reapKeys = append(q.reapKeys, l)
			}
			return true
		})
		for _, l := range q.reapKeys {
			q.inflight.Delete(l)
		}
	}
	if t, _ := q.inflight.Get(line); t < accept {
		q.inflight.Put(line, accept)
	}
}

// inflightUntil returns the accept completion of any in-flight
// write-back of the line, or 0.
func (q *wbQueue) inflightUntil(line uint64) units.Cycles {
	t, _ := q.inflight.Get(line)
	return t
}

// reap removes entries whose device accept has completed.
func (q *wbQueue) reap(now units.Cycles) {
	i := 0
	for i < len(q.pending) && q.pending[i] <= now {
		i++
	}
	if i > 0 {
		q.pending = append(q.pending[:0], q.pending[i:]...)
	}
}

// drainAll waits for every pending write-back, returning the final
// completion cycle.
func (q *wbQueue) drainAll(now units.Cycles) units.Cycles {
	for _, t := range q.pending {
		if t > now {
			now = t
		}
	}
	q.pending = q.pending[:0]
	return now
}

// Stalls returns total cycles cores spent stalled on the full queue.
func (q *wbQueue) Stalls() uint64 { return q.stalls }
