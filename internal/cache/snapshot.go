package cache

import (
	"fmt"

	"prestores/internal/snap"
)

// SnapshotState serializes all mutable cache state: the replacement
// clock, the RNG, the counters, every set's valid count, tree bits and
// way predictor, then the tag, stamp and flag arrays of all sets, each
// written whole. The stamp array is written only by caches that keep
// one (see readsStamps): the policy fixes the layout. The configuration
// itself is not written — restore targets are constructed from the same
// config, and the machine-level config hash guards against mismatches;
// the geometry stamp here is a second, cheaper line of defence that
// catches corrupt payloads early.
func (c *Cache) SnapshotState(w *snap.Writer) {
	w.Section("CACH")
	w.U64(uint64(len(c.sets)))
	w.U64(uint64(c.cfg.Ways))
	w.U64(c.tick)
	state, inc := c.rng.State()
	w.U64(state)
	w.U64(inc)
	w.U64(c.stats.Hits)
	w.U64(c.stats.Misses)
	w.U64(c.stats.Evictions)
	w.U64(c.stats.DirtyEvictions)
	w.U64(c.stats.Cleans)
	w.U64(c.stats.Fills)
	w.U64(c.stats.Invalidations)
	for si := range c.sets {
		s := &c.sets[si]
		w.I64(int64(s.nvalid))
		w.U64(s.plru)
		w.U8(s.mru)
	}
	w.U64s(c.tags)
	w.U64s(c.stamps)
	w.Raw(c.flags)
}

// RestoreState overwrites the cache's mutable state with a snapshot
// taken from an identically-configured cache. The metadata arrays are
// copied in bulk into the existing backing arrays. A set whose way
// predictor names no way, or whose valid count differs from its count
// of valid tags, is rejected: the cache could not run from it.
func (c *Cache) RestoreState(r *snap.Reader) error {
	r.Section("CACH")
	nsets, ways := r.U64(), r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if nsets != uint64(len(c.sets)) || ways != uint64(c.cfg.Ways) {
		return fmt.Errorf("cache %q: snapshot geometry %dx%d does not match %dx%d",
			c.cfg.Name, nsets, ways, len(c.sets), c.cfg.Ways)
	}
	c.tick = r.U64()
	state, inc := r.U64(), r.U64()
	c.rng.SetState(state, inc)
	c.stats.Hits = r.U64()
	c.stats.Misses = r.U64()
	c.stats.Evictions = r.U64()
	c.stats.DirtyEvictions = r.U64()
	c.stats.Cleans = r.U64()
	c.stats.Fills = r.U64()
	c.stats.Invalidations = r.U64()
	for si := range c.sets {
		s := &c.sets[si]
		nvalid := r.I64()
		s.plru = r.U64()
		s.mru = r.U8()
		if r.Err() != nil {
			break
		}
		if nvalid < 0 || nvalid > int64(c.cfg.Ways) {
			return fmt.Errorf("cache %q: set %d counts %d valid ways of %d", c.cfg.Name, si, nvalid, c.cfg.Ways)
		}
		s.nvalid = int32(nvalid)
		if int(s.mru) >= len(s.tags) {
			return fmt.Errorf("cache %q: set %d predicts way %d of %d", c.cfg.Name, si, s.mru, len(s.tags))
		}
	}
	r.U64s(c.tags)
	r.U64s(c.stamps) // nil, and so nothing read, where the policy keeps no stamps
	r.Raw(c.flags)
	if err := r.Err(); err != nil {
		return err
	}
	for si := range c.sets {
		s := &c.sets[si]
		n := 0
		for _, t := range s.tags {
			if t != invalidTag {
				n++
			}
		}
		if n != int(s.nvalid) {
			return fmt.Errorf("cache %q: set %d counts %d valid ways but holds %d", c.cfg.Name, si, s.nvalid, n)
		}
	}
	return nil
}
