package coherence

import (
	"fmt"
	"sort"

	"prestores/internal/snap"
)

// SnapshotState serializes the directory's line-state table and
// counters. Entries are written sorted by line address so the encoding
// is independent of the flat map's internal slot layout — two
// directories holding identical state always serialize identically.
// The dev mapping, latencies and ablation switches are configuration
// and are not written.
func (d *Directory) SnapshotState(w *snap.Writer) {
	w.Section("CDIR")
	keys := make([]uint64, 0, d.lines.Len())
	d.lines.Range(func(k uint64, _ lineState) bool {
		keys = append(keys, k)
		return true
	})
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.U64(uint64(len(keys)))
	for _, k := range keys {
		s, _ := d.lines.Get(k)
		w.U64(k)
		w.U64(s.sharers)
		w.U8(uint8(s.exclusive))
	}
	w.U64(d.stats.Reads)
	w.U64(d.stats.Writes)
	w.U64(d.stats.StateChanges)
	w.U64(d.stats.Invalidations)
	w.U64(d.stats.DirtyForwards)
}

// RestoreState replaces the directory's line-state table and counters
// with the snapshot's. Insertion order into the flat map differs from
// the snapshotted directory's history, but the map is order-insensitive
// for all queries, so behaviour is unaffected. Lines must be strictly
// ascending, as SnapshotState writes them, and never the flat map's
// reserved key.
func (d *Directory) RestoreState(r *snap.Reader) error {
	r.Section("CDIR")
	d.lines.Clear()
	n := r.U64()
	for i, prev := uint64(0), uint64(0); i < n && r.Err() == nil; i++ {
		k := r.U64()
		s := lineState{sharers: r.U64(), exclusive: int8(r.U8())}
		if r.Err() != nil {
			break
		}
		if k == ^uint64(0) || (i > 0 && k <= prev) {
			return fmt.Errorf("coherence: snapshot line %#x out of order", k)
		}
		prev = k
		d.lines.Put(k, s)
	}
	d.stats.Reads = r.U64()
	d.stats.Writes = r.U64()
	d.stats.StateChanges = r.U64()
	d.stats.Invalidations = r.U64()
	d.stats.DirtyForwards = r.U64()
	return r.Err()
}
