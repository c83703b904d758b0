package sim

import (
	"runtime"
	"testing"

	"prestores/internal/memdev"
	"prestores/internal/units"
)

func TestMachinePresets(t *testing.T) {
	for _, m := range []*Machine{MachineA(), MachineBFast(), MachineBSlow()} {
		if m.Cores() == 0 {
			t.Fatalf("%s: no cores", m.Name())
		}
		if m.LLC() == nil || m.Directory() == nil {
			t.Fatalf("%s: missing LLC/directory", m.Name())
		}
	}
	a := MachineA()
	if a.LineSize() != 64 {
		t.Fatalf("machine A line size %d", a.LineSize())
	}
	if a.Device(WindowPMEM).Kind() != memdev.KindPMEM {
		t.Fatal("machine A PMEM window wrong kind")
	}
	b := MachineBFast()
	if b.LineSize() != 128 {
		t.Fatalf("machine B line size %d", b.LineSize())
	}
	if b.Device(WindowRemote).Kind() != memdev.KindRemote {
		t.Fatal("machine B remote window wrong kind")
	}
	if b.Device("nope") != nil {
		t.Fatal("unknown window returned a device")
	}
}

func TestMachineBLatencies(t *testing.T) {
	fast := MachineBFast().Device(WindowRemote).ReadLatency()
	slow := MachineBSlow().Device(WindowRemote).ReadLatency()
	if fast != 60 || slow != 200 {
		t.Fatalf("B latencies = %d / %d, want 60 / 200", fast, slow)
	}
}

func TestDeviceForPanicsOutsideWindows(t *testing.T) {
	m := MachineA()
	defer func() {
		if recover() == nil {
			t.Fatal("deviceFor outside windows did not panic")
		}
	}()
	m.Core(0).Read(1<<50, make([]byte, 8))
}

func TestAllocRegions(t *testing.T) {
	m := MachineA()
	r1 := m.Alloc(WindowPMEM, "a", 1000)
	r2 := m.Alloc(WindowPMEM, "b", 1000)
	if r1.Base%64 != 0 {
		t.Fatal("alloc not line-aligned")
	}
	if r2.Base < r1.End() {
		t.Fatal("regions overlap")
	}
	if m.Arena().WindowOf(r1.Base) != WindowPMEM {
		t.Fatal("region in wrong window")
	}
}

func TestDrainChargesCores(t *testing.T) {
	m := MachineA()
	c := m.Core(0)
	// Generate write-backs whose media writes outlast the issue phase.
	for i := uint64(0); i < 2000; i++ {
		c.Write(1<<40+i*4096, make([]byte, 64))
		c.Prestore(1<<40+i*4096, 64, Clean)
	}
	before := c.Now()
	m.Drain()
	if c.Now() < before {
		t.Fatal("drain rewound the clock")
	}
	// Every core ends at the same (drained) time.
	for i := 1; i < m.Cores(); i++ {
		if m.Core(i).Now() != c.Now() {
			t.Fatal("drain left cores unsynchronized")
		}
	}
}

func TestSyncCores(t *testing.T) {
	m := MachineA()
	m.Core(0).Compute(1000)
	m.SyncCores()
	for i := 0; i < m.Cores(); i++ {
		if m.Core(i).Now() != m.Core(0).Now() {
			t.Fatal("SyncCores failed")
		}
	}
}

func TestElapsed(t *testing.T) {
	m := MachineA()
	cores := []*Core{m.Core(0), m.Core(1)}
	el := Elapsed(m, cores, func() {
		m.Core(0).Compute(100)
		m.Core(1).Compute(250)
	})
	if el != 250 {
		t.Fatalf("Elapsed = %d, want 250 (max over cores)", el)
	}
}

func TestRunInterleavedDeterminism(t *testing.T) {
	run := func() units.Cycles {
		m := MachineA()
		cores := []*Core{m.Core(0), m.Core(1), m.Core(2)}
		RunInterleaved(cores, 500, func(tid, i int, c *Core) {
			addr := uint64(1<<40) + uint64(tid*1<<20+i*64)
			c.Write(addr, []byte{byte(i)})
		})
		return m.MaxCycles()
	}
	if run() != run() {
		t.Fatal("interleaved run is not deterministic")
	}
}

func TestRunInterleavedOrder(t *testing.T) {
	m := MachineA()
	cores := []*Core{m.Core(0), m.Core(1)}
	var order []int
	RunInterleaved(cores, 3, func(tid, i int, c *Core) {
		order = append(order, tid*10+i)
	})
	want := []int{0, 10, 1, 11, 2, 12}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestFlushCachesWritesDirtyData(t *testing.T) {
	m := MachineA()
	c := m.Core(0)
	dev := m.Device(WindowPMEM)
	c.Write(1<<40, make([]byte, 4096))
	c.Fence()
	m.FlushCaches()
	if dev.Stats().BytesReceived < 4096 {
		t.Fatalf("flush delivered %d bytes, want >= 4096", dev.Stats().BytesReceived)
	}
	if c.L1().IsDirty(1 << 40) {
		t.Fatal("dirty line survived FlushCaches")
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	m := MachineA()
	c := m.Core(0)
	c.Write(1<<40, []byte{7})
	c.Fence()
	m.ResetStats()
	if m.Device(WindowPMEM).Stats().LineWrites != 0 {
		t.Fatal("device stats survived reset")
	}
	var b [1]byte
	c.Read(1<<40, b[:])
	if b[0] != 7 {
		t.Fatal("reset lost data")
	}
	if c.Stats().Loads != 1 {
		t.Fatal("core stats not restarted")
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("machine without windows did not panic")
		}
	}()
	NewMachine(Config{})
}

func TestCrossCoreVisibility(t *testing.T) {
	m := MachineA()
	w, r := m.Core(0), m.Core(1)
	w.Write(1<<40, []byte{99})
	w.Fence()
	var b [1]byte
	r.Read(1<<40, b[:])
	if b[0] != 99 {
		t.Fatal("cross-core read missed published data")
	}
}

func TestRemoteInvalidationOnRFO(t *testing.T) {
	m := MachineBFast()
	a, b := m.Core(0), m.Core(1)
	addr := uint64(1 << 40)
	// Core B caches the line.
	var buf [1]byte
	a.Write(addr, []byte{1})
	a.Fence()
	b.Read(addr, buf[:])
	if !b.L1().Contains(addr) {
		t.Fatal("setup: line not in B's L1")
	}
	// Core A re-acquires it exclusively; B's copy must vanish.
	a.Write(addr, []byte{2})
	a.Fence()
	if b.L1().Contains(addr) {
		t.Fatal("stale copy survived a remote RFO")
	}
	b.Read(addr, buf[:])
	if buf[0] != 2 {
		t.Fatal("reader saw stale data")
	}
}

// scriptedDev is a memdev.Device whose WriteLine returns a
// pre-scripted sequence of accept times, so tests can force the
// non-monotonic accept orders a shared queue sees when devices of
// different speeds (or cores with different clocks) interleave.
type scriptedDev struct {
	accepts []units.Cycles
	i       int
}

func (d *scriptedDev) Name() string                                  { return "scripted" }
func (d *scriptedDev) Kind() memdev.Kind                             { return memdev.KindDRAM }
func (d *scriptedDev) InternalGranularity() uint64                   { return 64 }
func (d *scriptedDev) ReadLatency() units.Cycles                     { return 1 }
func (d *scriptedDev) Stats() memdev.Stats                           { return memdev.Stats{} }
func (d *scriptedDev) ResetStats()                                   {}
func (d *scriptedDev) Flush(now units.Cycles) units.Cycles           { return now }
func (d *scriptedDev) DirectoryAccess(now units.Cycles) units.Cycles { return now }
func (d *scriptedDev) ReadLine(now units.Cycles, addr, size uint64) units.Cycles {
	return now
}
func (d *scriptedDev) WriteLine(now units.Cycles, addr, size uint64) units.Cycles {
	a := d.accepts[d.i]
	d.i++
	return a
}

// TestWBQueueBackPressureNonMonotonic locks in the full-queue contract:
// a core stalls until a slot frees — even when accept times are out of
// FIFO order — and no pending entry is ever dropped, so every stall
// cycle is accounted and the capacity invariant holds.
func TestWBQueueBackPressureNonMonotonic(t *testing.T) {
	dev := &scriptedDev{accepts: []units.Cycles{100, 90, 300, 120, 310}}
	devFor := func(uint64) memdev.Device { return dev }
	q := &wbQueue{cap: 2}

	check := func(step int, gotNow, wantNow units.Cycles, wantStalls uint64) {
		t.Helper()
		if gotNow != wantNow {
			t.Fatalf("step %d: coreNow = %d, want %d", step, gotNow, wantNow)
		}
		if q.stalls != wantStalls {
			t.Fatalf("step %d: stalls = %d, want %d", step, q.stalls, wantStalls)
		}
		if len(q.pending) > q.cap {
			t.Fatalf("step %d: %d pending entries exceed cap %d", step, len(q.pending), q.cap)
		}
	}

	now, _ := q.enqueue(0, 0, 0, 64, devFor) // accept 100
	check(1, now, 0, 0)
	now, _ = q.enqueue(0, 0, 64, 64, devFor) // accept 90: older entry finishes later
	check(2, now, 0, 0)
	// Queue full. The oldest accept (100) gates the third enqueue; the
	// stall retires both entries (90 completed earlier, out of order).
	now, _ = q.enqueue(0, 0, 128, 64, devFor) // accept 300
	check(3, now, 100, 100)
	if len(q.pending) != 1 {
		t.Fatalf("step 3: %d pending, want 1", len(q.pending))
	}
	now, _ = q.enqueue(100, 100, 192, 64, devFor) // accept 120
	check(4, now, 100, 100)
	// Full again with pending = [300, 120]: the stall must reach 300
	// (not drop the oldest), adding 200 more stall cycles.
	now, _ = q.enqueue(100, 100, 256, 64, devFor) // accept 310
	check(5, now, 300, 300)
	if len(q.pending) != 1 || q.pending[0] != 310 {
		t.Fatalf("step 5: pending = %v, want [310]", q.pending)
	}
}

func TestDrainModeString(t *testing.T) {
	if DrainEager.String() != "eager" || DrainLazy.String() != "lazy" {
		t.Fatal("drain mode names")
	}
}

func TestPrestoreOpString(t *testing.T) {
	if Demote.String() != "demote" || Clean.String() != "clean" {
		t.Fatal("op names")
	}
}

// TestNewMachineAllocBytes bounds what building machine A allocates,
// which every warm fork pays before its restore. Its caches are
// PLRU/QLRU at power-of-two ways, which keep no recency stamps, and
// 40-byte set headers: about 1.47 MB. Per-way stamps and 96-byte
// headers took 2.9 MB; stamps on the LLC alone would cross the bound.
func TestNewMachineAllocBytes(t *testing.T) {
	const bound = 1_600_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := NewMachine(ConfigA())
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
		t.Fatalf("NewMachine(ConfigA()) allocated %d bytes; want under %d", got, bound)
	}
}
