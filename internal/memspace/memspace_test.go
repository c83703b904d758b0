package memspace

import (
	"bytes"
	"testing"
	"testing/quick"

	"prestores/internal/xrand"
)

func TestStoreReadWriteRoundtrip(t *testing.T) {
	s := NewStore()
	data := []byte("hello, simulated memory")
	s.Write(1000, data)
	got := make([]byte, len(data))
	s.Read(1000, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("roundtrip: got %q", got)
	}
}

func TestStoreCrossPageWrite(t *testing.T) {
	s := NewStore()
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	addr := uint64(PageSize - 100) // straddles three pages
	s.Write(addr, data)
	got := make([]byte, len(data))
	s.Read(addr, got)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page roundtrip mismatch")
	}
}

func TestStoreUnwrittenReadsZero(t *testing.T) {
	s := NewStore()
	buf := []byte{1, 2, 3, 4}
	s.Read(1<<40, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatalf("unwritten memory read %v", buf)
		}
	}
}

func TestStoreU64(t *testing.T) {
	s := NewStore()
	s.WriteU64(512, 0xdeadbeefcafebabe)
	if got := s.ReadU64(512); got != 0xdeadbeefcafebabe {
		t.Fatalf("ReadU64 = %#x", got)
	}
	// Straddling a page boundary.
	s.WriteU64(PageSize-4, 0x1122334455667788)
	if got := s.ReadU64(PageSize - 4); got != 0x1122334455667788 {
		t.Fatalf("cross-page ReadU64 = %#x", got)
	}
}

func TestStoreFill(t *testing.T) {
	s := NewStore()
	s.Fill(100, 10000, 0xAB)
	buf := make([]byte, 10000)
	s.Read(100, buf)
	for i, b := range buf {
		if b != 0xAB {
			t.Fatalf("Fill missed offset %d: %#x", i, b)
		}
	}
	// Neighbours untouched.
	var edge [1]byte
	s.Read(99, edge[:])
	if edge[0] != 0 {
		t.Fatal("Fill wrote before start")
	}
	s.Read(10100, edge[:])
	if edge[0] != 0 {
		t.Fatal("Fill wrote past end")
	}
}

func TestStoreQuickRoundtrip(t *testing.T) {
	s := NewStore()
	f := func(addr uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		s.Write(uint64(addr), data)
		got := make([]byte, len(data))
		s.Read(uint64(addr), got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStoreOverlappingWrites(t *testing.T) {
	s := NewStore()
	rng := xrand.New(5)
	ref := make([]byte, 1<<16)
	for i := 0; i < 500; i++ {
		off := rng.Uint64n(uint64(len(ref) - 256))
		n := rng.Uint64n(255) + 1
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(rng.Uint32())
		}
		s.Write(off, b)
		copy(ref[off:], b)
	}
	got := make([]byte, len(ref))
	s.Read(0, got)
	if !bytes.Equal(got, ref) {
		t.Fatal("overlapping writes diverged from reference")
	}
}

func TestArenaWindows(t *testing.T) {
	a := NewArena()
	if err := a.AddWindow("w1", 0, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := a.AddWindow("w2", 1<<20, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := a.AddWindow("w1", 1<<30, 1<<20); err == nil {
		t.Fatal("duplicate window name accepted")
	}
	if err := a.AddWindow("overlap", 1<<19, 1<<20); err == nil {
		t.Fatal("overlapping window accepted")
	}
}

func TestArenaAlloc(t *testing.T) {
	a := NewArena()
	if err := a.AddWindow("w", 4096, 1<<20); err != nil {
		t.Fatal(err)
	}
	r1, err := a.Alloc("w", "first", 100, 64)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Base%64 != 0 || r1.Base < 4096 {
		t.Fatalf("bad base %#x", r1.Base)
	}
	r2, err := a.Alloc("w", "second", 100, 64)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Base < r1.End() {
		t.Fatalf("regions overlap: %#x < %#x", r2.Base, r1.End())
	}
	if _, err := a.Alloc("missing", "x", 10, 8); err == nil {
		t.Fatal("alloc in unknown window accepted")
	}
	if _, err := a.Alloc("w", "zero", 0, 8); err == nil {
		t.Fatal("zero-size alloc accepted")
	}
	if _, err := a.Alloc("w", "badalign", 10, 3); err == nil {
		t.Fatal("non-pow2 alignment accepted")
	}
	if _, err := a.Alloc("w", "huge", 1<<21, 64); err == nil {
		t.Fatal("over-size alloc accepted")
	}
}

func TestArenaNoOverlapProperty(t *testing.T) {
	a := NewArena()
	if err := a.AddWindow("w", 0, 1<<24); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(8)
	var regions []Region
	for i := 0; i < 200; i++ {
		size := rng.Uint64n(8192) + 1
		align := uint64(1) << rng.Uint64n(8)
		r, err := a.Alloc("w", "r", size, align)
		if err != nil {
			t.Fatal(err)
		}
		if r.Base%align != 0 {
			t.Fatalf("misaligned region %#x align %d", r.Base, align)
		}
		for _, prev := range regions {
			if r.Base < prev.End() && prev.Base < r.End() {
				t.Fatalf("regions overlap: %+v vs %+v", r, prev)
			}
		}
		regions = append(regions, r)
	}
}

func TestWindowOf(t *testing.T) {
	a := NewArena()
	a.AddWindow("low", 0, 1000)
	a.AddWindow("high", 1<<20, 1000)
	if got := a.WindowOf(500); got != "low" {
		t.Errorf("WindowOf(500) = %q", got)
	}
	if got := a.WindowOf(1<<20 + 10); got != "high" {
		t.Errorf("WindowOf(high) = %q", got)
	}
	if got := a.WindowOf(5000); got != "" {
		t.Errorf("WindowOf(hole) = %q", got)
	}
}

func TestRegionOf(t *testing.T) {
	a := NewArena()
	a.AddWindow("w", 0, 1<<20)
	r := a.MustAlloc("w", "named", 128, 64)
	got, ok := a.RegionOf(r.Base + 10)
	if !ok || got.Name != "named" {
		t.Fatalf("RegionOf = %+v, %v", got, ok)
	}
	if _, ok := a.RegionOf(r.End() + 1000); ok {
		t.Fatal("RegionOf found a region in unallocated space")
	}
}

func TestArenaReset(t *testing.T) {
	a := NewArena()
	a.AddWindow("w", 0, 1<<20)
	r1 := a.MustAlloc("w", "a", 128, 64)
	a.Reset()
	r2 := a.MustAlloc("w", "b", 128, 64)
	if r1.Base != r2.Base {
		t.Fatalf("reset did not rewind: %#x vs %#x", r1.Base, r2.Base)
	}
	if len(a.Regions()) != 1 {
		t.Fatalf("regions after reset = %d", len(a.Regions()))
	}
}

func TestRegionContains(t *testing.T) {
	r := Region{Base: 100, Size: 50}
	if !r.Contains(100) || !r.Contains(149) {
		t.Fatal("Contains misses interior")
	}
	if r.Contains(99) || r.Contains(150) {
		t.Fatal("Contains includes exterior")
	}
}

func TestReservePreservesExistingPages(t *testing.T) {
	s := NewStore()
	// Materialize pages through the map first, then reserve over them:
	// the data must survive migration into the extent table.
	s.WriteU64(0x10_0000, 0xdeadbeef)
	s.WriteU64(0x10_2000, 42)
	s.Reserve(0x10_0000, 4*PageSize)
	if v := s.ReadU64(0x10_0000); v != 0xdeadbeef {
		t.Fatalf("ReadU64 after Reserve = %#x; want 0xdeadbeef", v)
	}
	if v := s.ReadU64(0x10_2000); v != 42 {
		t.Fatalf("ReadU64 after Reserve = %d; want 42", v)
	}
	// Writes inside the reserved range land in the extent, and the page
	// count reflects only materialized pages.
	s.WriteU64(0x10_1000, 7)
	if v := s.ReadU64(0x10_1000); v != 7 {
		t.Fatalf("ReadU64 in reserved range = %d; want 7", v)
	}
	if n := s.PagesAllocated(); n != 3 {
		t.Fatalf("PagesAllocated = %d; want 3", n)
	}
}

func TestReserveNoOps(t *testing.T) {
	s := NewStore()
	s.Reserve(0x1000, 0)     // zero size
	s.Reserve(0x1000, 5<<30) // over maxReserve
	s.Reserve(0x20_0000, 2*PageSize)
	s.Reserve(0x20_1000, 4*PageSize) // overlaps the extent above
	// All still readable/writable regardless of which path serves them.
	s.WriteU64(0x20_0000, 1)
	s.WriteU64(0x20_3000, 2) // outside extent: map path
	if s.ReadU64(0x20_0000) != 1 || s.ReadU64(0x20_3000) != 2 {
		t.Fatal("reserve no-op ranges not readable")
	}
}

func TestReserveUnwrittenReadsZero(t *testing.T) {
	s := NewStore()
	s.Reserve(0x30_0000, 8*PageSize)
	buf := make([]byte, 16)
	s.Read(0x30_4000, buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d of unwritten reserved page = %d; want 0", i, b)
		}
	}
	if s.PagesAllocated() != 0 {
		t.Fatal("reading unwritten reserved pages materialized backing")
	}
}

// TestTranslationCacheCrossPage alternates accesses between two pages
// so every access misses the one-entry translation cache, and crosses a
// page boundary so the slow path splits; both must stay correct.
func TestTranslationCacheCrossPage(t *testing.T) {
	s := NewStore()
	s.Reserve(0x40_0000, 2*PageSize)
	a := uint64(0x40_0000) + PageSize - 4 // straddles the page boundary
	s.WriteU64(a, 0x1122334455667788)
	s.WriteU64(0x40_0000, 9) // evicts a's page from the cache
	if v := s.ReadU64(a); v != 0x1122334455667788 {
		t.Fatalf("cross-page ReadU64 = %#x", v)
	}
	if v := s.ReadU64(0x40_0000); v != 9 {
		t.Fatalf("ReadU64 = %d; want 9", v)
	}
}
