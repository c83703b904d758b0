package memspace

import (
	"fmt"

	"prestores/internal/snap"
)

// maxPN bounds page numbers: a page's first byte must be addressable.
const maxPN = 1<<(64-pageShift) - 1

// SnapshotState serializes every materialized page as one list: its
// length, then a (page number, page) pair per page in ascending
// page-number order. The page tables and translation caches are not
// written; a restore rebuilds the tables from the page numbers, and a
// shared page encodes exactly like a private one.
func (s *Store) SnapshotState(w *snap.Writer) {
	w.Section("MEMS")
	w.U64(uint64(s.PagesAllocated()))
	s.present(func(pn uint64, p *page) {
		w.U64(pn)
		w.Raw(p[:])
	})
}

// RestoreState replaces the store's contents wholesale with the
// snapshot's: the same pages come back, so later PagesAllocated answers
// (and, more importantly, every byte read) match the snapshotted store.
//
// Restored pages are not copied: each one aliases its bytes in the
// reader's buffer and is marked shared, and the store copies it on its
// first write (see Store). The buffer must therefore stay unmodified
// for as long as the store lives; the store's references keep it
// reachable. The restore builds directories and leaves only where
// restored pages are; the tables the store held before are dropped.
//
// The decoder accepts only the canonical encoding SnapshotState
// produces: page numbers strictly ascending and addressable. On an
// error the store's contents are undefined; callers must discard it.
func (s *Store) RestoreState(r *snap.Reader) error {
	r.Section("MEMS")
	n := r.U64()
	var restored Store
	var l *leaf // the previous page's leaf: pages ascend, so most share it
	for i, prev := uint64(0), uint64(0); i < n && r.Err() == nil; i++ {
		pn := r.U64()
		b := r.View(PageSize)
		if b == nil {
			break
		}
		if (i > 0 && pn <= prev) || pn > maxPN {
			return fmt.Errorf("memspace: page %#x out of order or range", pn)
		}
		if l == nil || pn>>leafShift != prev>>leafShift {
			l = restored.leafFor(pn, true)
		}
		prev = pn
		k := pn & (leafPages - 1)
		l.pages[k] = (*page)(b)
		l.setShared(k)
	}
	if err := r.Err(); err != nil {
		return err
	}
	*s = restored
	return nil
}
