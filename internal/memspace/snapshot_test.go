package memspace

import (
	"bytes"
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
	cowExtent = uint64(0x10_0000) // reserved: 16 pages
	cowMap    = uint64(0x90_0000) // unreserved: hash-map pages
)

// pattern is the value cowSource stores at addr.
func pattern(addr uint64) uint64 { return addr * 0x9e3779b97f4a7c15 }

// cowSource returns a store holding pages in a reserved extent and in
// the page map, with every page's bytes distinct.
func cowSource() *Store {
	s := NewStore()
	s.Reserve(cowExtent, 16*PageSize)
	for _, base := range []uint64{cowExtent, cowExtent + PageSize, cowExtent + 5*PageSize, cowMap, cowMap + PageSize} {
		for off := uint64(0); off < PageSize; off += 8 {
			s.WriteU64(base+off, pattern(base+off))
		}
	}
	return s
}

// cowWrites writes every shared page kind through each write entry
// point: a read-then-write of one page (re-read after another page's
// write has evicted it from the writable translation cache), WriteU64
// inside a page, Write across an extent page boundary, and Fill across
// a map page boundary.
func cowWrites(t *testing.T, s *Store) {
	t.Helper()
	if v := s.ReadU64(cowExtent + 128); v != pattern(cowExtent+128) {
		t.Fatalf("read before write = %#x", v)
	}
	s.WriteU64(cowExtent+128, 2)
	s.WriteU64(cowExtent+5*PageSize+64, 1)
	if v := s.ReadU64(cowExtent + 128); v != 2 {
		t.Fatalf("read after write = %d; want 2 (stale shared page cached)", v)
	}
	s.Write(cowExtent+PageSize-3, []byte("straddle"))
	s.Fill(cowMap+PageSize-100, 200, 0xab)
}

// TestRestoreCopyOnWrite restores two stores from one buffer and writes
// through one of them: the buffer and the sibling must not change, no
// page is added, and each store still encodes exactly what it holds.
func TestRestoreCopyOnWrite(t *testing.T) {
	src := cowSource()
	buf := snapshotBytes(src)
	orig := bytes.Clone(buf)

	a := NewStore()
	a.Reserve(cowExtent, 16*PageSize) // reused page table
	restoreBytes(t, a, buf)
	b := NewStore() // freshly allocated page table
	restoreBytes(t, b, buf)
	pages := src.PagesAllocated()
	if a.PagesAllocated() != pages || b.PagesAllocated() != pages {
		t.Fatalf("restored PagesAllocated = %d, %d; want %d", a.PagesAllocated(), b.PagesAllocated(), pages)
	}

	cowWrites(t, a)
	cowWrites(t, src) // the same writes on private pages: the reference
	if !bytes.Equal(buf, orig) {
		t.Fatal("writes through a restored store modified the checkpoint bytes")
	}
	if got := b.ReadU64(cowExtent + 5*PageSize + 64); got != pattern(cowExtent+5*PageSize+64) {
		t.Fatalf("sibling store sees %#x after a write through its twin", got)
	}
	if a.PagesAllocated() != pages {
		t.Fatalf("PagesAllocated after copy-on-write = %d; want %d", a.PagesAllocated(), pages)
	}
	if !bytes.Equal(snapshotBytes(a), snapshotBytes(src)) {
		t.Fatal("re-snapshot of the written store does not encode what it holds")
	}
	if !bytes.Equal(snapshotBytes(b), orig) {
		t.Fatal("re-snapshot of the untouched sibling differs from its source")
	}
}

// TestReserveCarriesSharedMark reserves over restored map pages: they
// move into the new extent still shared, so a write copies them.
func TestReserveCarriesSharedMark(t *testing.T) {
	src := cowSource()
	buf := snapshotBytes(src)
	orig := bytes.Clone(buf)
	s := NewStore()
	restoreBytes(t, s, buf)
	s.Reserve(cowMap, 4*PageSize)
	s.WriteU64(cowMap+8, 3)
	s.Fill(cowMap+PageSize, 16, 0xcd)
	if !bytes.Equal(buf, orig) {
		t.Fatal("write to a migrated shared page modified the checkpoint bytes")
	}
	if s.ReadU64(cowMap+8) != 3 || s.ReadU64(cowMap+PageSize) != 0xcdcdcdcdcdcdcdcd {
		t.Fatal("writes to migrated pages lost")
	}
}

// TestRestoreRejectsNonCanonical feeds MEMS sections the encoder never
// writes; each must fail to decode rather than restore a state whose
// re-encoding differs.
func TestRestoreRejectsNonCanonical(t *testing.T) {
	pg := make([]byte, PageSize)
	extent := func(w *snap.Writer, start, n uint64, idx ...uint64) {
		w.U64(start)
		w.U64(n)
		w.U64(uint64(len(idx)))
		for _, j := range idx {
			w.U64(j)
			w.Raw(pg)
		}
	}
	cases := map[string]func(w *snap.Writer){
		"index out of range": func(w *snap.Writer) {
			w.U64(1)
			extent(w, 16, 4, 4)
			w.U64(0)
		},
		"index not ascending": func(w *snap.Writer) {
			w.U64(1)
			extent(w, 16, 4, 2, 1)
			w.U64(0)
		},
		"duplicate index": func(w *snap.Writer) {
			w.U64(1)
			extent(w, 16, 4, 1, 1)
			w.U64(0)
		},
		"overlapping extents": func(w *snap.Writer) {
			w.U64(2)
			extent(w, 16, 4)
			extent(w, 19, 4)
			w.U64(0)
		},
		"empty extent": func(w *snap.Writer) {
			w.U64(1)
			extent(w, 16, 0)
			w.U64(0)
		},
		"map page inside extent": func(w *snap.Writer) {
			w.U64(1)
			extent(w, 16, 4)
			w.U64(1)
			w.U64(17)
			w.Raw(pg)
		},
		"map pages not ascending": func(w *snap.Writer) {
			w.U64(0)
			w.U64(2)
			w.U64(9)
			w.Raw(pg)
			w.U64(9)
			w.Raw(pg)
		},
		"truncated page": func(w *snap.Writer) {
			w.U64(1)
			extent(w, 16, 4)
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
