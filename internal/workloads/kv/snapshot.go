package kv

import (
	"fmt"
	"sort"

	"prestores/internal/snap"
)

// SnapshotState serializes the heap's host-side allocator state — the
// bump cursor and the per-class free lists — for a checkpoint annex.
// Free classes are written in sorted order and each list in LIFO order,
// so identical heap states always produce identical bytes.
func (h *ValueHeap) SnapshotState(w *snap.Writer) {
	w.Section("KVHP")
	w.U64(h.next)
	classes := make([]uint64, 0, len(h.free))
	for c := range h.free {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	w.U64(uint64(len(classes)))
	for _, cl := range classes {
		w.U64(cl)
		list := h.free[cl]
		w.U64(uint64(len(list)))
		for _, addr := range list {
			w.U64(addr)
		}
	}
}

// RestoreState replaces the heap's allocator state with a serialized
// one. The heap must have been constructed with the same region and
// alignment as the producer's; the annex carries only mutable state.
func (h *ValueHeap) RestoreState(r *snap.Reader) error {
	r.Section("KVHP")
	next := r.U64()
	n := r.U64()
	free := make(map[uint64][]uint64, n)
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		cl := r.U64()
		k := r.U64()
		var list []uint64
		for j := uint64(0); j < k && r.Err() == nil; j++ {
			list = append(list, r.U64())
		}
		free[cl] = list
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("kv: value heap: %w", err)
	}
	h.next = next
	h.free = free
	return nil
}
