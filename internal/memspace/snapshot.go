package memspace

import (
	"fmt"
	"sort"

	"prestores/internal/snap"
)

// maxRestoreSlots caps the flat-table slots a restore may allocate for
// extents the target store has not reserved itself (four full-size
// reservations), so a damaged extent header cannot demand gigabytes.
// A restore onto a store built by the same Reserve calls allocates none.
const maxRestoreSlots = 4 * (maxReserve >> pageShift)

// SnapshotState serializes the store's reserved extents and every
// materialized page. Each extent is written as its start page, its
// length and its count of present pages, then one (index, page) pair
// per present page in ascending index order. Hash-map pages follow as
// (page number, page) pairs in ascending page-number order, so the
// encoding never depends on map iteration order. The translation caches
// are pure lookup shortcuts and are not written; a shared page encodes
// exactly like a private one.
func (s *Store) SnapshotState(w *snap.Writer) {
	w.Section("MEMS")
	w.U64(uint64(len(s.extents)))
	for i := range s.extents {
		e := &s.extents[i]
		w.U64(e.startPN)
		w.U64(uint64(len(e.pages)))
		present := 0
		for _, p := range e.pages {
			if p != nil {
				present++
			}
		}
		w.U64(uint64(present))
		for j, p := range e.pages {
			if p != nil {
				w.U64(uint64(j))
				w.Raw(p[:])
			}
		}
	}
	pns := make([]uint64, 0, len(s.pages))
	for pn := range s.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	w.U64(uint64(len(pns)))
	for _, pn := range pns {
		w.U64(pn)
		w.Raw(s.pages[pn][:])
	}
}

// RestoreState replaces the store's contents wholesale with the
// snapshot's: extents, pages and the lazy-materialization pattern all
// come back exactly as captured, so later PagesAllocated answers (and,
// more importantly, every byte read) match the snapshotted store.
//
// Restored pages are not copied: each one aliases its bytes in the
// reader's buffer and is marked shared, and the store copies it on its
// first write (see Store). The buffer must therefore stay unmodified
// for as long as the store lives; the store's references keep it
// reachable. An extent whose start and length match one this store
// already reserved reuses that page table instead of allocating a new
// one.
//
// The decoder accepts only the canonical encoding SnapshotState
// produces: extents sorted and disjoint, page indexes and map page
// numbers strictly ascending, and no map page inside an extent. On an
// error the store's contents are undefined; callers must discard it.
func (s *Store) RestoreState(r *snap.Reader) error {
	r.Section("MEMS")
	nExt := r.U64()
	var extents []extent
	var newSlots, end uint64
	for i := uint64(0); i < nExt && r.Err() == nil; i++ {
		start, n, present := r.U64(), r.U64(), r.U64()
		if r.Err() != nil {
			break
		}
		if n == 0 || n > maxReserve>>pageShift || start < end || start+n < start || present > n {
			return fmt.Errorf("memspace: bad extent %d: start page %#x, %d pages, %d present", i, start, n, present)
		}
		end = start + n
		e := s.reservedExtent(start, n)
		if e.pages == nil {
			if newSlots += n; newSlots > maxRestoreSlots {
				return fmt.Errorf("memspace: snapshot extents exceed %d unreserved pages", maxRestoreSlots)
			}
			e.pages = make([]*page, n)
		}
		for k, next := uint64(0), uint64(0); k < present; k++ {
			j := r.U64()
			b := r.View(PageSize)
			if b == nil {
				break
			}
			if j < next || j >= n {
				return fmt.Errorf("memspace: extent %d: page index %d out of order or range", i, j)
			}
			next = j + 1
			e.pages[j] = (*page)(b)
			e.markShared(j)
		}
		extents = append(extents, e)
	}
	nMap := r.U64()
	pages := make(map[uint64]*page)
	shared := make(map[uint64]struct{})
	restored := Store{extents: extents}
	for i, prev := uint64(0), uint64(0); i < nMap && r.Err() == nil; i++ {
		pn := r.U64()
		b := r.View(PageSize)
		if b == nil {
			break
		}
		if (i > 0 && pn <= prev) || restored.extentIdx(pn) >= 0 {
			return fmt.Errorf("memspace: map page %#x out of order or inside an extent", pn)
		}
		prev = pn
		pages[pn] = (*page)(b)
		shared[pn] = struct{}{}
	}
	if err := r.Err(); err != nil {
		return err
	}
	*s = Store{pages: pages, sharedPNs: shared, extents: extents}
	return nil
}

// reservedExtent returns the store's extent over exactly [start,
// start+n) with its page table and shared marks cleared for reuse, or a
// bare extent without a table when the store has none.
func (s *Store) reservedExtent(start, n uint64) extent {
	if i := s.extentIdx(start); i >= 0 {
		e := s.extents[i]
		if e.startPN == start && uint64(len(e.pages)) == n {
			clear(e.pages)
			clear(e.shared)
			return e
		}
	}
	return extent{startPN: start}
}
