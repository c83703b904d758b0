package main

import (
	"fmt"
	"sync"

	"prestores/internal/sim"
)

// simCounts is simulated work read from outside the simulator, from the
// machines sim.ObserveMachines hands us. The counts are deterministic
// for a fixed input, so they are checks and exact per-layer figures,
// never speed figures: a host-speed change must leave them alone.
//
// They are read from the machines themselves, not from
// bench.Result.SimOps: that counter (sim.OpsCounter) is only fed when a
// machine is drained or has its stats reset, so it misses work done on
// machines that never are. Hit ratios come from the cores' load
// counters, not from cache.Stats: the simulator's hit paths use
// Cache.Touch, which counts hits but never misses.
type simCounts struct {
	Machines          uint64
	Instr             uint64
	Loads             uint64
	Stores            uint64
	Prestores         uint64
	Fences            uint64
	FenceStallCycles  uint64
	SBStallCycles     uint64
	LoadL1Hits        uint64
	LoadLLCHits       uint64
	LoadMemFills      uint64
	LLCDirtyEvictions uint64
	StateChanges      uint64
	WriteBytes        uint64
	MediaBytes        uint64
}

// countMachine reads one finished machine's counters.
func countMachine(m *sim.Machine) simCounts {
	c := simCounts{Machines: 1}
	for i := 0; i < m.Cores(); i++ {
		core := m.Core(i)
		st := core.Stats()
		c.Instr += core.Instructions()
		c.Loads += st.Loads
		c.Stores += st.Stores + st.NTStores
		c.Prestores += st.Prestores
		c.Fences += st.Fences
		c.FenceStallCycles += uint64(st.FenceStall)
		c.SBStallCycles += uint64(st.SBStall)
		c.LoadL1Hits += st.LoadL1Hits
		c.LoadLLCHits += st.LoadLLCHits
		c.LoadMemFills += st.LoadMemFills
	}
	c.LLCDirtyEvictions = m.LLC().Stats().DirtyEvictions
	c.StateChanges = m.Directory().Stats().StateChanges
	for _, w := range m.Config().Windows {
		ds := m.Device(w.Name).Stats()
		c.WriteBytes += ds.BytesReceived
		c.MediaBytes += ds.MediaBytesWritten
	}
	return c
}

func (c *simCounts) add(o simCounts) {
	c.Machines += o.Machines
	c.Instr += o.Instr
	c.Loads += o.Loads
	c.Stores += o.Stores
	c.Prestores += o.Prestores
	c.Fences += o.Fences
	c.FenceStallCycles += o.FenceStallCycles
	c.SBStallCycles += o.SBStallCycles
	c.LoadL1Hits += o.LoadL1Hits
	c.LoadLLCHits += o.LoadLLCHits
	c.LoadMemFills += o.LoadMemFills
	c.LLCDirtyEvictions += o.LLCDirtyEvictions
	c.StateChanges += o.StateChanges
	c.WriteBytes += o.WriteBytes
	c.MediaBytes += o.MediaBytes
}

func (c simCounts) String() string { return fmt.Sprintf("%+v", struct{ simCounts }{c}) }

func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// metrics renders the counts as per-layer metrics.
func (c simCounts) metrics(out map[string]float64) {
	out["sim.instr"] = float64(c.Instr)
	out["sim.loads"] = float64(c.Loads)
	out["sim.stores"] = float64(c.Stores)
	out["sim.prestores"] = float64(c.Prestores)
	out["sim.fences"] = float64(c.Fences)
	out["sim.fence_stall_cycles"] = float64(c.FenceStallCycles)
	out["sim.sb_stall_cycles"] = float64(c.SBStallCycles)
	out["cache.l1_hit_ratio"] = ratio(c.LoadL1Hits, c.Loads-c.LoadL1Hits)
	out["cache.llc_hit_ratio"] = ratio(c.LoadLLCHits, c.LoadMemFills)
	out["cache.llc_dirty_evictions"] = float64(c.LLCDirtyEvictions)
	out["coherence.state_changes"] = float64(c.StateChanges)
	out["memdev.write_bytes"] = float64(c.WriteBytes)
	out["memdev.media_bytes"] = float64(c.MediaBytes)
}

// machineLog collects every machine built while it is installed. The
// registry is process-wide, so callers take() at points where every
// machine built so far has finished running.
type machineLog struct {
	mu     sync.Mutex
	ms     []*sim.Machine
	cancel func()
}

func observeMachines() *machineLog {
	l := &machineLog{}
	l.cancel = sim.ObserveMachines(func(m *sim.Machine) {
		l.mu.Lock()
		l.ms = append(l.ms, m)
		l.mu.Unlock()
	})
	return l
}

// take counts and forgets the machines logged so far; forgetting them
// lets their memory go.
func (l *machineLog) take() simCounts { return countAll(l.machines()) }

// machines returns and forgets the machines logged so far, for callers
// that must wait for them to finish before counting.
func (l *machineLog) machines() []*sim.Machine {
	l.mu.Lock()
	defer l.mu.Unlock()
	ms := l.ms
	l.ms = nil
	return ms
}

func countAll(ms []*sim.Machine) simCounts {
	var c simCounts
	for _, m := range ms {
		c.add(countMachine(m))
	}
	return c
}

func (l *machineLog) close() { l.cancel() }
