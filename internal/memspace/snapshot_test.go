package memspace

import (
	"bytes"
	"runtime"
	"testing"

	"prestores/internal/snap"
)

func snapshotBytes(s *Store) []byte {
	w := snap.NewWriter()
	s.SnapshotState(w)
	return w.Finish()
}

func restoreBytes(t *testing.T, s *Store, buf []byte) {
	t.Helper()
	r := snap.NewReader(buf)
	if err := s.RestoreState(r); err != nil {
		t.Fatal(err)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

const (
	cowBase  = uint64(0x10_0000) // cowSlots pages from here
	cowSlots = 2*leafPages + 76  // two full leaves and a partial third
	cowEdge  = uint64(3) << 30   // an extent boundary
)

// cowPage returns the address of page j from cowBase.
func cowPage(j uint64) uint64 { return cowBase + j*PageSize }

// pattern is the value cowSource stores at addr.
func pattern(addr uint64) uint64 { return addr * 0x9e3779b97f4a7c15 }

// cowSource returns a store holding pages in three extents, with every
// page's bytes distinct. The pages sit on both sides of a leaf boundary,
// in the last slot of a partial leaf and on both sides of an extent
// boundary.
func cowSource() *Store {
	s := NewStore()
	for _, base := range cowPages {
		for off := uint64(0); off < PageSize; off += 8 {
			s.WriteU64(base+off, pattern(base+off))
		}
	}
	return s
}

// cowPages are the pages cowSource writes.
var cowPages = []uint64{
	cowPage(0), cowPage(1), cowPage(5), cowPage(leafPages - 1), cowPage(leafPages), cowPage(cowSlots - 1),
	cowEdge - PageSize, cowEdge,
}

// checkPattern fails unless every cowSource page of s reads back its
// pattern.
func checkPattern(t *testing.T, s *Store) {
	t.Helper()
	for _, base := range cowPages {
		for off := uint64(0); off < PageSize; off += 8 {
			if v := s.ReadU64(base + off); v != pattern(base+off) {
				t.Fatalf("%#x reads %#x; want %#x", base+off, v, pattern(base+off))
			}
		}
	}
}

// cowWrites writes every shared page kind through each write entry
// point: a read-then-write of one page (re-read after another page's
// write has evicted it from the writable translation cache), WriteU64
// inside a page, Write across a page boundary and across a leaf
// boundary, and Fill across an extent boundary.
func cowWrites(t *testing.T, s *Store) {
	t.Helper()
	if v := s.ReadU64(cowBase + 128); v != pattern(cowBase+128) {
		t.Fatalf("read before write = %#x", v)
	}
	s.WriteU64(cowBase+128, 2)
	s.WriteU64(cowBase+5*PageSize+64, 1)
	if v := s.ReadU64(cowBase + 128); v != 2 {
		t.Fatalf("read after write = %d; want 2 (stale shared page cached)", v)
	}
	s.Write(cowBase+PageSize-3, []byte("straddle"))
	s.Write(cowPage(leafPages)-3, []byte("leaf edge"))
	s.WriteU64(cowPage(cowSlots)-8, 4)
	s.Fill(cowEdge-100, 200, 0xab)
}

// TestRestoreCopyOnWrite restores two stores from one buffer and writes
// through one of them: the buffer and the sibling must not change, no
// page is added, and each store still encodes exactly what it holds.
func TestRestoreCopyOnWrite(t *testing.T) {
	src := cowSource()
	buf := snapshotBytes(src)
	orig := bytes.Clone(buf)

	a := NewStore()
	a.WriteU64(cowEdge+8*PageSize, 1) // a page the restore drops
	restoreBytes(t, a, buf)
	b := NewStore() // no table before the restore
	restoreBytes(t, b, buf)
	pages := src.PagesAllocated()
	if a.PagesAllocated() != pages || b.PagesAllocated() != pages {
		t.Fatalf("restored PagesAllocated = %d, %d; want %d", a.PagesAllocated(), b.PagesAllocated(), pages)
	}
	checkPattern(t, a)

	cowWrites(t, a)
	cowWrites(t, src) // the same writes on private pages: the reference
	if !bytes.Equal(buf, orig) {
		t.Fatal("writes through a restored store modified the checkpoint bytes")
	}
	if got := b.ReadU64(cowBase + 5*PageSize + 64); got != pattern(cowBase+5*PageSize+64) {
		t.Fatalf("sibling store sees %#x after a write through its twin", got)
	}
	if a.PagesAllocated() != pages {
		t.Fatalf("PagesAllocated after copy-on-write = %d; want %d", a.PagesAllocated(), pages)
	}
	checkPattern(t, b)
	if !bytes.Equal(snapshotBytes(a), snapshotBytes(src)) {
		t.Fatal("re-snapshot of the written store does not encode what it holds")
	}
	if !bytes.Equal(snapshotBytes(b), orig) {
		t.Fatal("re-snapshot of the untouched sibling differs from its source")
	}
	// A copied page is private: writing it again, after another page's
	// write has evicted it from the translation cache, copies nothing.
	if n := testing.AllocsPerRun(10, func() {
		a.WriteU64(cowBase+128, 5)
		a.WriteU64(cowPage(leafPages)+8, 6)
	}); n != 0 {
		t.Fatalf("rewriting copied pages allocates %v times per run", n)
	}
}

// TestRestoreTableMemory forks a store whose pages are scattered over
// a 4 GiB range, as a warm ycsb eval does with its value heap: the
// restore must allocate well under the 8 MiB that one pointer per page
// slot would take.
func TestRestoreTableMemory(t *testing.T) {
	const base, heap = uint64(1) << 40, uint64(4 << 30)
	src := NewStore()
	for _, off := range []uint64{0, 1 << 20, heap / 2, heap - PageSize} {
		src.WriteU64(base+off, off+1)
	}
	buf := snapshotBytes(src)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := NewStore()
	restoreBytes(t, s, buf)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("restore of pages scattered over 4 GiB allocated %d bytes; want under 1 MiB", got)
	}
	if v := s.ReadU64(base + heap/2); v != heap/2+1 {
		t.Fatalf("restored page reads %#x", v)
	}
	if !bytes.Equal(snapshotBytes(s), buf) {
		t.Fatal("re-snapshot differs from its source")
	}
}

// TestSharedMarkSurvivesExtentInsert restores shared pages, then writes
// a page whose new extent sorts between theirs: the shared pages keep
// their marks through the move, so a write still copies them.
func TestSharedMarkSurvivesExtentInsert(t *testing.T) {
	src := cowSource()
	buf := snapshotBytes(src)
	orig := bytes.Clone(buf)
	s := NewStore()
	restoreBytes(t, s, buf)
	s.WriteU64(1<<30, 9) // extent 1, between cowBase's and cowEdge's
	s.WriteU64(cowEdge+8, 3)
	s.Fill(cowEdge-PageSize, 16, 0xcd)
	if !bytes.Equal(buf, orig) {
		t.Fatal("a write to a shared page after an extent insert modified the checkpoint bytes")
	}
	if s.ReadU64(cowEdge+8) != 3 || s.ReadU64(cowEdge-PageSize) != 0xcdcdcdcdcdcdcdcd || s.ReadU64(1<<30) != 9 {
		t.Fatal("writes after an extent insert lost")
	}
}

// TestRestoreRejectsNonCanonical feeds MEMS sections the encoder never
// writes; each must fail to decode rather than restore a state whose
// re-encoding differs.
func TestRestoreRejectsNonCanonical(t *testing.T) {
	pg := make([]byte, PageSize)
	pages := func(w *snap.Writer, pns ...uint64) {
		w.U64(uint64(len(pns)))
		for _, pn := range pns {
			w.U64(pn)
			w.Raw(pg)
		}
	}
	cases := map[string]func(w *snap.Writer){
		"not ascending":         func(w *snap.Writer) { pages(w, 9, 3) },
		"not ascending, extent": func(w *snap.Writer) { pages(w, 1<<extentShift, 1) },
		"duplicate page":        func(w *snap.Writer) { pages(w, 9, 9) },
		"unaddressable page":    func(w *snap.Writer) { pages(w, maxPN+1) },
		"truncated page": func(w *snap.Writer) {
			w.U64(1)
			w.U64(40)
			w.Raw(pg[:100])
		},
	}
	for name, build := range cases {
		w := snap.NewWriter()
		w.Section("MEMS")
		build(w)
		if err := NewStore().RestoreState(snap.NewReader(w.Finish())); err == nil {
			t.Errorf("%s: restore succeeded", name)
		}
	}
}

// privatePages counts s's pages that are not shared with restored
// bytes: the pages the store has copied or created itself.
func privatePages(s *Store) int {
	n := 0
	for _, e := range s.extents {
		for _, l := range e.leaves {
			if l == nil {
				continue
			}
			for k, p := range l.pages {
				if p != nil && !l.shared[k] {
					n++
				}
			}
		}
	}
	return n
}

// TestRestoreFirstWriteCopiesOnePage writes 8 bytes into a restored
// store: exactly one 1 KiB page becomes private, every other page
// still aliases the checkpoint, and the checkpoint bytes are unchanged.
func TestRestoreFirstWriteCopiesOnePage(t *testing.T) {
	if PageSize != 1<<10 {
		t.Fatalf("PageSize = %d; want 1 KiB", PageSize)
	}
	src := cowSource()
	buf := snapshotBytes(src)
	orig := bytes.Clone(buf)
	s := NewStore()
	restoreBytes(t, s, buf)
	if n := privatePages(s); n != 0 {
		t.Fatalf("restored store holds %d private pages; want 0", n)
	}
	s.WriteU64(cowPage(5)+64, 1)
	if n := privatePages(s); n != 1 {
		t.Fatalf("an 8-byte write made %d pages private; want 1", n)
	}
	if s.PagesAllocated() != src.PagesAllocated() {
		t.Fatalf("PagesAllocated = %d; want %d", s.PagesAllocated(), src.PagesAllocated())
	}
	if !bytes.Equal(buf, orig) {
		t.Fatal("the first write modified the checkpoint bytes")
	}
	if v := s.ReadU64(cowPage(5) + 64); v != 1 {
		t.Fatalf("written word reads %#x; want 1", v)
	}
	if v := s.ReadU64(cowPage(5) + 72); v != pattern(cowPage(5)+72) {
		t.Fatalf("the copied page lost its neighbouring bytes: %#x", v)
	}
}

// TestSlabPagesNeverAlias writes a distinct word into every page of a
// span that needs several slabs, and copies every page of a restored
// store: no two pages share bytes, the pages cost one allocation per
// slab rather than one per page, and two stores forked from one
// snapshot each keep their own writes to the same address.
func TestSlabPagesNeverAlias(t *testing.T) {
	const pages = 4 * slabMax
	s := NewStore()
	allocs := testing.AllocsPerRun(1, func() {
		s = NewStore()
		for i := uint64(0); i < pages; i++ {
			s.WriteU64(i*PageSize, i+1)
		}
	})
	if allocs > pages/16 {
		t.Fatalf("writing %d fresh pages allocated %v times", pages, allocs)
	}
	seen := map[*page]bool{}
	for i := uint64(0); i < pages; i++ {
		if v := s.ReadU64(i * PageSize); v != i+1 {
			t.Fatalf("page %d reads %d; want %d", i, v, i+1)
		}
		p, _ := s.pageFor(i*PageSize, false)
		if seen[p] {
			t.Fatalf("page %d aliases an earlier page", i)
		}
		seen[p] = true
	}

	buf := snapshotBytes(s)
	a, b := NewStore(), NewStore()
	restoreBytes(t, a, buf)
	restoreBytes(t, b, buf)
	for i := uint64(0); i < pages; i++ {
		a.WriteU64(i*PageSize+8, 2*i)
		b.WriteU64(i*PageSize+8, 3*i)
	}
	for i := uint64(0); i < pages; i++ {
		if va, vb := a.ReadU64(i*PageSize+8), b.ReadU64(i*PageSize+8); va != 2*i || vb != 3*i {
			t.Fatalf("page %d: forks read %d and %d; want %d and %d", i, va, vb, 2*i, 3*i)
		}
		if va, vb := a.ReadU64(i*PageSize), b.ReadU64(i*PageSize); va != i+1 || vb != i+1 {
			t.Fatalf("page %d: forks lost the restored word: %d, %d", i, va, vb)
		}
	}
	if privatePages(a) != pages || privatePages(b) != pages {
		t.Fatalf("forks hold %d and %d private pages; want %d each", privatePages(a), privatePages(b), pages)
	}
}
