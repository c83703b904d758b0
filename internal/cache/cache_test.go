package cache

import (
	"testing"
	"testing/quick"

	"prestores/internal/units"
	"prestores/internal/xrand"
)

func smallCache(pol Policy) *Cache {
	return New(Config{
		Name: "t", Size: 4 * units.KiB, Ways: 4, LineSize: 64,
		Policy: pol, HitLat: 4, Seed: 1,
	})
}

func TestGeometryPanics(t *testing.T) {
	cases := []Config{
		{Size: 0, Ways: 4, LineSize: 64},
		{Size: 4096, Ways: 0, LineSize: 64},
		{Size: 4096, Ways: 4, LineSize: 0},
		{Size: 4096, Ways: 4, LineSize: 63}, // not pow2
		{Size: 3000, Ways: 4, LineSize: 64}, // sets not pow2
		{Size: 128, Ways: 4, LineSize: 64},  // zero sets
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: New(%+v) did not panic", i, cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestBasicHitMiss(t *testing.T) {
	c := smallCache(LRU)
	hit, _, _ := c.Access(0x1000, false)
	if hit {
		t.Fatal("cold access hit")
	}
	hit, _, _ = c.Access(0x1000, false)
	if !hit {
		t.Fatal("second access missed")
	}
	hit, _, _ = c.Access(0x1004, false) // same line
	if !hit {
		t.Fatal("same-line access missed")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDirtyTracking(t *testing.T) {
	c := smallCache(LRU)
	c.Access(0x2000, false)
	if c.IsDirty(0x2000) {
		t.Fatal("read access marked dirty")
	}
	c.Access(0x2000, true)
	if !c.IsDirty(0x2000) {
		t.Fatal("write access not dirty")
	}
	if !c.CleanLine(0x2000) {
		t.Fatal("CleanLine on dirty line returned false")
	}
	if c.IsDirty(0x2000) {
		t.Fatal("line dirty after clean")
	}
	if !c.Contains(0x2000) {
		t.Fatal("clean evicted the line (clwb must keep it cached)")
	}
	if c.CleanLine(0x2000) {
		t.Fatal("CleanLine on clean line returned true")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// 4-way set: fill ways, touch the first, insert a 5th line; the
	// second-oldest must be the victim.
	c := smallCache(LRU)
	setStride := uint64(c.Config().Size) / uint64(c.Config().Ways) // lines mapping to set 0
	addrs := []uint64{0, setStride, 2 * setStride, 3 * setStride}
	for _, a := range addrs {
		c.Access(a, true)
	}
	c.Access(addrs[0], false) // refresh line 0
	_, ev, evicted := c.Access(4*setStride, false)
	if !evicted {
		t.Fatal("no eviction on full set")
	}
	if ev.Addr != addrs[1] {
		t.Fatalf("LRU victim = %#x, want %#x", ev.Addr, addrs[1])
	}
	if !ev.Dirty {
		t.Fatal("victim written earlier should be dirty")
	}
}

func TestFIFOEvictionOrder(t *testing.T) {
	c := smallCache(FIFO)
	setStride := uint64(c.Config().Size) / uint64(c.Config().Ways)
	for i := uint64(0); i < 4; i++ {
		c.Access(i*setStride, false)
	}
	c.Access(0, false) // a hit must NOT save line 0 under FIFO
	_, ev, evicted := c.Access(4*setStride, false)
	if !evicted || ev.Addr != 0 {
		t.Fatalf("FIFO victim = %#x (evicted=%v), want 0", ev.Addr, evicted)
	}
}

func TestPLRUVictimIsNotMRU(t *testing.T) {
	c := smallCache(PLRU)
	setStride := uint64(c.Config().Size) / uint64(c.Config().Ways)
	for i := uint64(0); i < 4; i++ {
		c.Access(i*setStride, false)
	}
	mru := 3 * setStride
	c.Access(mru, false)
	_, ev, evicted := c.Access(4*setStride, false)
	if !evicted {
		t.Fatal("no eviction")
	}
	if ev.Addr == mru {
		t.Fatal("PLRU evicted the most recently used line")
	}
}

// TestNonPow2TreeFallsBackToLRU: at three ways PLRU and QLRU have no
// tree and evict the least recently used line by its stamp. QLRU runs
// at a random mix of 1e-9 (zero selects the default), so it takes the
// tree's victim here.
func TestNonPow2TreeFallsBackToLRU(t *testing.T) {
	for _, pol := range []Policy{PLRU, QLRU} {
		c := New(Config{Name: "t", Size: 3 * 64 * 16, Ways: 3, LineSize: 64, Policy: pol, RandomMix: 1e-9, Seed: 1})
		setStride := uint64(16 * 64) // lines mapping to set 0
		for i := uint64(0); i < 3; i++ {
			c.Access(i*setStride, false)
		}
		c.Access(0, false) // refresh line 0
		_, ev, evicted := c.Access(3*setStride, false)
		if !evicted || ev.Addr != setStride {
			t.Errorf("%v at 3 ways: victim %#x (evicted=%v), want the least recent %#x", pol, ev.Addr, evicted, setStride)
		}
	}
}

// TestStampsOnlyWherePolicyReadsThem: a cache allocates recency stamps
// only for a policy that picks victims by them.
func TestStampsOnlyWherePolicyReadsThem(t *testing.T) {
	for _, c := range []struct {
		pol  Policy
		ways int
		want bool
	}{
		{LRU, 4, true}, {FIFO, 4, true}, {PLRU, 3, true}, {QLRU, 3, true},
		{PLRU, 4, false}, {QLRU, 4, false}, {Random, 4, false}, {Random, 3, false}, {SRRIP, 4, false},
	} {
		cc := New(Config{Name: "t", Size: uint64(c.ways) * 64 * 16, Ways: c.ways, LineSize: 64, Policy: c.pol, Seed: 1})
		if got := cc.stamps != nil; got != c.want {
			t.Errorf("%v at %d ways keeps stamps: %v, want %v", c.pol, c.ways, got, c.want)
		}
	}
}

func TestInvalidate(t *testing.T) {
	c := smallCache(LRU)
	c.Access(0x3000, true)
	present, dirty := c.Invalidate(0x3000)
	if !present || !dirty {
		t.Fatalf("Invalidate = %v,%v", present, dirty)
	}
	if c.Contains(0x3000) {
		t.Fatal("line present after invalidate")
	}
	present, _ = c.Invalidate(0x3000)
	if present {
		t.Fatal("double invalidate reported present")
	}
}

func TestInsertMergesDirty(t *testing.T) {
	c := smallCache(LRU)
	c.Insert(0x4000, false)
	c.Insert(0x4000, true)
	if !c.IsDirty(0x4000) {
		t.Fatal("Insert did not OR dirty")
	}
	c.Insert(0x4000, false)
	if !c.IsDirty(0x4000) {
		t.Fatal("Insert cleared dirty")
	}
}

func TestDirtyLinesIteration(t *testing.T) {
	c := smallCache(LRU)
	c.Access(0x1000, true)
	c.Access(0x2000, false)
	c.Access(0x3040, true)
	seen := map[uint64]bool{}
	c.DirtyLines(func(a uint64) { seen[a] = true })
	if len(seen) != 2 || !seen[0x1000] || !seen[0x3000+64] {
		t.Fatalf("DirtyLines = %v", seen)
	}
}

func TestCapacityInvariant(t *testing.T) {
	for _, pol := range []Policy{LRU, PLRU, FIFO, Random, QLRU} {
		c := smallCache(pol)
		capacity := int(c.Config().Size / c.Config().LineSize)
		rng := xrand.New(42)
		for i := 0; i < 10000; i++ {
			c.Access(rng.Uint64n(1<<24)&^63, rng.Uint32()%2 == 0)
			if v := c.ValidLines(); v > capacity {
				t.Fatalf("%v: %d valid lines > capacity %d", pol, v, capacity)
			}
		}
	}
}

func TestEvictionAddressReconstruction(t *testing.T) {
	for _, hash := range []bool{false, true} {
		c := New(Config{
			Name: "t", Size: 8 * units.KiB, Ways: 2, LineSize: 64,
			Policy: LRU, HashSets: hash, Seed: 3,
		})
		rng := xrand.New(9)
		inserted := map[uint64]bool{}
		evictedAddrs := map[uint64]bool{}
		for i := 0; i < 5000; i++ {
			addr := rng.Uint64n(1<<30) &^ 63
			inserted[addr] = true
			if _, ev, evd := c.Access(addr, false); evd {
				evictedAddrs[ev.Addr] = true
			}
		}
		for a := range evictedAddrs {
			if !inserted[a] {
				t.Fatalf("hash=%v: evicted address %#x was never inserted", hash, a)
			}
		}
	}
}

func TestHashSetsSpreadsConflicts(t *testing.T) {
	// Sequential lines with a large power-of-two stride conflict badly
	// without hashing and should spread with it.
	mk := func(hash bool) *Cache {
		return New(Config{
			Name: "t", Size: 64 * units.KiB, Ways: 4, LineSize: 64,
			Policy: LRU, HashSets: hash, Seed: 3,
		})
	}
	run := func(c *Cache) uint64 {
		stride := uint64(c.Config().Size) / uint64(c.Config().Ways) // same-set stride unhashed
		for r := 0; r < 4; r++ {
			for i := uint64(0); i < 64; i++ {
				c.Access(i*stride, false)
			}
		}
		return c.Stats().Misses
	}
	plain, hashed := run(mk(false)), run(mk(true))
	if hashed >= plain {
		t.Fatalf("hashing did not reduce conflict misses: %d vs %d", hashed, plain)
	}
}

func TestClear(t *testing.T) {
	c := smallCache(LRU)
	c.Access(0x1000, true)
	c.Clear()
	if c.ValidLines() != 0 {
		t.Fatal("Clear left valid lines")
	}
}

func TestQuickContainsAfterAccess(t *testing.T) {
	c := smallCache(QLRU)
	f := func(addr uint64) bool {
		addr &= 1<<28 - 1
		c.Access(addr, false)
		return c.Contains(addr) // just-accessed line must be present
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPolicyString(t *testing.T) {
	for pol, want := range map[Policy]string{
		LRU: "LRU", PLRU: "PLRU", FIFO: "FIFO", Random: "Random", QLRU: "QLRU",
	} {
		if pol.String() != want {
			t.Errorf("%d.String() = %q", pol, pol.String())
		}
	}
}

func TestHitRate(t *testing.T) {
	c := smallCache(LRU)
	if c.Stats().HitRate() != 0 {
		t.Fatal("empty hit rate not 0")
	}
	c.Access(0, false)
	c.Access(0, false)
	if hr := c.Stats().HitRate(); hr != 0.5 {
		t.Fatalf("hit rate = %v", hr)
	}
}

func TestQLRUSometimesRandom(t *testing.T) {
	// With RandomMix=1.0 the victim should frequently differ from the
	// PLRU victim; with 0 it should follow PLRU deterministically. We
	// simply check both configurations run and evictions occur.
	for _, mix := range []float64{0.0, 1.0} {
		c := New(Config{
			Name: "t", Size: 4 * units.KiB, Ways: 4, LineSize: 64,
			Policy: QLRU, RandomMix: mix, Seed: 7,
		})
		evictions := 0
		for i := uint64(0); i < 1000; i++ {
			if _, _, evd := c.Access(i*1024, false); evd {
				evictions++
			}
		}
		if evictions == 0 {
			t.Fatalf("mix=%v: no evictions", mix)
		}
	}
}

func TestSRRIPBasic(t *testing.T) {
	c := smallCache(SRRIP)
	setStride := uint64(c.Config().Size) / uint64(c.Config().Ways)
	for i := uint64(0); i < 4; i++ {
		c.Access(i*setStride, false)
	}
	// Promote line 0 with a hit; it must survive the next eviction.
	c.Access(0, false)
	_, ev, evicted := c.Access(4*setStride, false)
	if !evicted {
		t.Fatal("no eviction")
	}
	if ev.Addr == 0 {
		t.Fatal("SRRIP evicted the hit-promoted line")
	}
	if !c.Contains(0) {
		t.Fatal("promoted line gone")
	}
}

func TestSRRIPCapacity(t *testing.T) {
	c := smallCache(SRRIP)
	capacity := int(c.Config().Size / c.Config().LineSize)
	rng := xrand.New(21)
	for i := 0; i < 5000; i++ {
		c.Access(rng.Uint64n(1<<24)&^63, i%2 == 0)
		if v := c.ValidLines(); v > capacity {
			t.Fatalf("over capacity: %d", v)
		}
	}
}

func TestTouchMatchesContainsPlusAccess(t *testing.T) {
	c := smallCache(LRU)
	if c.Touch(0x1000, false) {
		t.Fatal("Touch hit on a cold cache")
	}
	if c.Stats().Misses != 1 {
		t.Fatal("Touch miss did not count a miss")
	}
	if c.Contains(0x1000) {
		t.Fatal("Touch miss inserted the line")
	}
	c.Fill(0x1000, false) // the core fills a Touch miss without a second count
	if !c.Touch(0x1000, true) {
		t.Fatal("Touch missed a present line")
	}
	if !c.IsDirty(0x1000) {
		t.Fatal("Touch(write) did not mark line dirty")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("Hits, Misses = %d, %d; want 1, 1 (both from Touch)", st.Hits, st.Misses)
	}
}

// TestTouchCountsEveryAccess drives one cache with a hand-built
// Touch-then-Fill sequence, the way the simulator core probes a level,
// and checks each access counts exactly one hit or one miss.
func TestTouchCountsEveryAccess(t *testing.T) {
	c := smallCache(LRU)
	stride := uint64(len(c.sets)) * 64 // same set, distinct tags
	probe := func(addr uint64) {
		if !c.Touch(addr, false) {
			c.Fill(addr, false)
		}
	}
	// 5 lines into a 4-way set: 5 cold misses, line 0 evicted.
	for i := uint64(0); i < 5; i++ {
		probe(i * stride)
	}
	probe(4 * stride) // hit
	probe(1 * stride) // hit
	probe(0)          // miss: evicted above
	probe(0)          // hit
	if st := c.Stats(); st.Hits != 3 || st.Misses != 6 || st.Fills != 6 {
		t.Fatalf("Hits, Misses, Fills = %d, %d, %d; want 3, 6, 6", st.Hits, st.Misses, st.Fills)
	}
	if got, want := c.Stats().HitRate(), 3.0/9; got != want {
		t.Fatalf("HitRate = %v, want %v", got, want)
	}
}

func TestTouchUpdatesRecency(t *testing.T) {
	c := smallCache(LRU)
	// Fill one set: lines 0..3 map to the same set (setBits apart).
	stride := uint64(len(c.sets)) * 64
	for i := uint64(0); i < 4; i++ {
		c.Access(i*stride, false)
	}
	c.Touch(0, false) // refresh line 0: line 1 becomes LRU
	_, ev, evicted := c.Access(4*stride, false)
	if !evicted || ev.Addr != stride {
		t.Fatalf("evicted %v addr %#x; want line %#x", evicted, ev.Addr, stride)
	}
}

func TestFillInsertsAbsentLine(t *testing.T) {
	c := smallCache(LRU)
	ev, evicted := c.Fill(0x2000, true)
	if evicted {
		t.Fatalf("Fill into empty cache evicted %+v", ev)
	}
	if !c.Contains(0x2000) || !c.IsDirty(0x2000) {
		t.Fatal("Fill did not install a dirty line")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Fill touched hit/miss stats: %+v", st)
	}
}
