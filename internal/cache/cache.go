// Package cache implements a set-associative cache model with the
// replacement policies found in the CPUs the paper evaluates.
//
// The policy matters: the paper's Problem #1 (random order of
// evictions, §4.1) exists because modern LLCs do not implement strict
// LRU — Intel parts mix pseudo-LRU with "random" evictions, and ARM
// parts mix LRU, FIFO and random. A cache that evicted in strict LRU
// order would write a sequentially-written array back to memory in
// order and PMEM would see no write amplification. This package
// provides strict LRU, tree-PLRU, FIFO, uniform-random, and QLRU (a
// pseudo-LRU with an occasional random victim, approximating Intel's
// documented behaviour); experiments select per-level policies, and the
// ablation benches flip them.
package cache

import (
	"fmt"

	"prestores/internal/units"
	"prestores/internal/xrand"
)

// Policy selects the replacement algorithm.
type Policy int

// Replacement policies.
const (
	LRU    Policy = iota // strict least-recently-used
	PLRU                 // tree pseudo-LRU
	FIFO                 // insertion order
	Random               // uniform random victim
	QLRU                 // pseudo-LRU with occasional random victim (Intel-like)
	SRRIP                // static re-reference interval prediction (2-bit)
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case PLRU:
		return "PLRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "Random"
	case QLRU:
		return "QLRU"
	case SRRIP:
		return "SRRIP"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config describes one cache level.
type Config struct {
	Name     string
	Size     uint64 // total bytes; must be Ways*LineSize*nsets
	Ways     int
	LineSize uint64
	Policy   Policy
	// RandomMix is the probability (0..1) that QLRU picks a random
	// victim instead of the PLRU one. Ignored by other policies.
	RandomMix float64
	// HashSets enables Intel-style "complex addressing": upper address
	// bits are XOR-folded into the set index, so physically adjacent
	// lines land in unrelated sets. This decorrelates the eviction
	// times of the lines of one device-granularity block — a key
	// ingredient of Problem #1.
	HashSets bool
	HitLat   units.Cycles
	Seed     uint64
}

// Stats aggregates per-level counters.
type Stats struct {
	Hits           uint64
	Misses         uint64
	Evictions      uint64
	DirtyEvictions uint64
	Cleans         uint64 // lines transitioned dirty->clean by CleanLine
	Fills          uint64
	Invalidations  uint64
}

// HitRate returns hits / (hits+misses), or 0 with no accesses.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Eviction describes a line pushed out of the cache.
type Eviction struct {
	Addr  uint64 // line base address
	Dirty bool
}

// Per-line metadata is split into parallel arrays (see set): an 8-byte
// recency/insertion stamp, kept only by policies that read it, and a
// flags byte packing the dirty bit with the 2-bit SRRIP re-reference
// prediction value.
const (
	dirtyBit  uint8 = 1 << 0
	rrpvShift       = 1
	rrpvMask  uint8 = 3 << rrpvShift
)

// invalidTag marks an empty way in a set's tag array. Real tags are
// line addresses shifted right by the line bits, so all-ones can never
// occur.
const invalidTag = ^uint64(0)

// set is one set's header: a view of its tags, which the hot scan
// reads, and its replacement state. The per-way metadata lives in the
// cache's parallel dense arrays: the tag scan is the single hottest
// loop in the simulator, and the large-LLC metadata working set is what
// the simulator itself misses on, so every way costs 9 bytes (tag +
// flags), plus an 8-byte stamp where the policy reads one, instead of a
// 48-byte struct. A set's stamps and flags are reached by index
// (si*ways + way); the header keeps no slice for them and is 40 bytes.
type set struct {
	tags   []uint64 // line address per way, invalidTag when empty
	plru   uint64   // tree-PLRU bits
	nvalid int32
	// mru is a way predictor: the way of the set's most recent hit or
	// fill, checked before the tag scan. Tags are unique within a set,
	// so a predictor hit returns the same way the scan would.
	mru uint8
}

// Cache is one level of a set-associative cache. It is not safe for
// concurrent use; the simulator is single-threaded by design.
type Cache struct {
	cfg      Config
	sets     []set
	setMask  uint64
	setBits  uint
	lineBits uint
	tick     uint64
	rng      *xrand.PCG
	stats    Stats

	// Precomputed tree-PLRU update masks, indexed by way: touching way
	// i sets plruSet[i] and clears plruClr[i]. The tree walk depends
	// only on (i, ways), so hoisting it out of touchPLRU turns the
	// per-access update into two mask operations. Both masks are zero
	// for non-power-of-two way counts (PLRU falls back to LRU there).
	plruSet []uint64
	plruClr []uint64

	waysPow2 bool
	// stampOnHit is set when hits refresh the stamp: the cache keeps
	// stamps and is not FIFO, whose victim choice depends on insertion
	// order.
	stampOnHit bool

	// tags, stamps and flags hold every way's metadata, set by set;
	// each set's tags slice is a view into tags, and a snapshot copies
	// them whole. stamps holds one timestamp per way, and only for
	// policies that pick victims by it (see readsStamps); it is nil
	// otherwise. For FIFO caches it is the insertion tick (hits do not
	// refresh it); for every other policy it is the last-use tick. They
	// sit last, away from the fields the access path reads.
	tags   []uint64
	stamps []uint64
	flags  []uint8
}

// readsStamps reports whether cfg's policy ever picks a victim by
// stamp: LRU and FIFO always, PLRU and QLRU only at non-power-of-two
// way counts, where the tree falls back to LRU. Random and SRRIP never.
func readsStamps(cfg Config) bool {
	switch cfg.Policy {
	case LRU, FIFO:
		return true
	case PLRU, QLRU:
		return !units.IsPow2(uint64(cfg.Ways))
	}
	return false
}

// New returns a cache for cfg. It panics on inconsistent geometry so
// that a bad machine description fails loudly at construction.
func New(cfg Config) *Cache {
	if cfg.Ways <= 0 || cfg.Ways > 256 || cfg.LineSize == 0 || cfg.Size == 0 {
		panic(fmt.Sprintf("cache %q: invalid geometry %+v", cfg.Name, cfg))
	}
	if !units.IsPow2(cfg.LineSize) {
		panic(fmt.Sprintf("cache %q: line size %d not a power of two", cfg.Name, cfg.LineSize))
	}
	nsets := cfg.Size / (uint64(cfg.Ways) * cfg.LineSize)
	if nsets == 0 || !units.IsPow2(nsets) {
		panic(fmt.Sprintf("cache %q: %d sets (size %d, ways %d, line %d) — must be a power of two",
			cfg.Name, nsets, cfg.Size, cfg.Ways, cfg.LineSize))
	}
	if cfg.Policy == QLRU && cfg.RandomMix == 0 {
		cfg.RandomMix = 0.3
	}
	c := &Cache{
		cfg:        cfg,
		sets:       make([]set, nsets),
		setMask:    nsets - 1,
		setBits:    units.Log2(nsets),
		lineBits:   units.Log2(cfg.LineSize),
		rng:        xrand.New(cfg.Seed ^ 0x9e3779b97f4a7c15),
		waysPow2:   units.IsPow2(uint64(cfg.Ways)),
		stampOnHit: readsStamps(cfg) && cfg.Policy != FIFO,
	}
	c.plruSet = make([]uint64, cfg.Ways)
	c.plruClr = make([]uint64, cfg.Ways)
	if c.waysPow2 && cfg.Ways >= 2 {
		for i := 0; i < cfg.Ways; i++ {
			node, lo, span := 1, 0, cfg.Ways
			for span > 1 {
				half := span / 2
				if i < lo+half {
					c.plruSet[i] |= 1 << uint(node) // left recent
					node = node * 2
				} else {
					c.plruClr[i] |= 1 << uint(node) // right recent
					lo += half
					node = node*2 + 1
				}
				span = half
			}
		}
	}
	c.tags = make([]uint64, len(c.sets)*cfg.Ways)
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	if readsStamps(cfg) {
		c.stamps = make([]uint64, len(c.sets)*cfg.Ways)
	}
	c.flags = make([]uint8, len(c.sets)*cfg.Ways)
	for i := range c.sets {
		lo, hi := i*cfg.Ways, (i+1)*cfg.Ways
		c.sets[i].tags = c.tags[lo:hi:hi]
	}
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() uint64 { return c.cfg.LineSize }

// HitLatency returns the configured hit latency.
func (c *Cache) HitLatency() units.Cycles { return c.cfg.HitLat }

// LineBase returns the base address of the line containing addr.
func (c *Cache) LineBase(addr uint64) uint64 {
	return units.AlignDown(addr, c.cfg.LineSize)
}

func (c *Cache) locate(addr uint64) (int, uint64) {
	lineAddr := addr >> c.lineBits
	si := lineAddr & c.setMask
	if c.cfg.HashSets {
		si = c.hashSet(lineAddr)
	}
	return int(si), lineAddr
}

// hashSet folds the upper line-address bits into the set index.
func (c *Cache) hashSet(lineAddr uint64) uint64 {
	h := lineAddr
	h ^= h >> c.setBits
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	return h & c.setMask
}

func (s *set) find(tag uint64) int {
	if i := int(s.mru); s.tags[i] == tag {
		return i
	}
	for i, t := range s.tags {
		if t == tag {
			s.mru = uint8(i)
			return i
		}
	}
	return -1
}

// Contains reports whether the line holding addr is present, without
// touching replacement state.
func (c *Cache) Contains(addr uint64) bool {
	si, tag := c.locate(addr)
	return c.sets[si].find(tag) >= 0
}

// IsDirty reports whether the line holding addr is present and dirty.
func (c *Cache) IsDirty(addr uint64) bool {
	si, tag := c.locate(addr)
	i := c.sets[si].find(tag)
	return i >= 0 && c.flags[si*c.cfg.Ways+i]&dirtyBit != 0
}

// Access looks up the line containing addr, filling it on a miss.
// write marks the line dirty. It returns whether the access hit and,
// if a valid line was displaced by the fill, the eviction.
func (c *Cache) Access(addr uint64, write bool) (hit bool, ev Eviction, evicted bool) {
	c.tick++
	si, tag := c.locate(addr)
	s := &c.sets[si]
	if i := s.find(tag); i >= 0 {
		c.stats.Hits++
		w := si*c.cfg.Ways + i
		if c.stampOnHit {
			c.stamps[w] = c.tick
		}
		f := c.flags[w] &^ rrpvMask // hit promotion
		if write {
			f |= dirtyBit
		}
		c.flags[w] = f
		c.touchPLRU(s, i)
		return true, Eviction{}, false
	}
	c.stats.Misses++
	ev, evicted = c.fill(si, tag, write)
	return false, ev, evicted
}

// Touch looks up the line containing addr and, if present, performs
// exactly what Access does on a hit: the hit is counted, recency state
// is updated, and write marks the line dirty. An absent line counts a
// miss and is otherwise left alone: the caller fills it with Fill,
// which counts nothing. It is the fused equivalent of the
// Contains-then-Access sequence the simulator core issues on its load
// and RFO paths, saving the second tag lookup.
func (c *Cache) Touch(addr uint64, write bool) bool {
	si, tag := c.locate(addr)
	s := &c.sets[si]
	i := s.find(tag)
	if i < 0 {
		c.stats.Misses++
		return false
	}
	c.tick++
	c.stats.Hits++
	w := si*c.cfg.Ways + i
	if c.stampOnHit {
		c.stamps[w] = c.tick
	}
	f := c.flags[w] &^ rrpvMask // hit promotion
	if write {
		f |= dirtyBit
	}
	c.flags[w] = f
	c.touchPLRU(s, i)
	return true
}

// Fill inserts a line the caller has just probed and knows to be
// absent: Insert minus the redundant tag lookup. Calling it for a
// present line would duplicate the line; callers must hold a
// just-checked miss.
func (c *Cache) Fill(addr uint64, dirty bool) (ev Eviction, evicted bool) {
	c.tick++
	si, tag := c.locate(addr)
	return c.fill(si, tag, dirty)
}

// Insert places the line containing addr into the cache without
// counting a hit or miss (used when a lower level absorbs an eviction
// from an upper level). dirty marks the inserted line dirty. If the
// line is already present, dirty is OR-ed in.
func (c *Cache) Insert(addr uint64, dirty bool) (ev Eviction, evicted bool) {
	c.tick++
	si, tag := c.locate(addr)
	s := &c.sets[si]
	if i := s.find(tag); i >= 0 {
		w := si*c.cfg.Ways + i
		if c.stampOnHit {
			c.stamps[w] = c.tick
		}
		if dirty {
			c.flags[w] |= dirtyBit
		}
		c.touchPLRU(s, i)
		return Eviction{}, false
	}
	return c.fill(si, tag, dirty)
}

func (c *Cache) fill(si int, tag uint64, dirty bool) (ev Eviction, evicted bool) {
	s := &c.sets[si]
	c.stats.Fills++
	base := si * c.cfg.Ways
	victim := -1
	if int(s.nvalid) < len(s.tags) { // a full set has no free way to scan for
		for i, t := range s.tags {
			if t == invalidTag {
				victim = i
				break
			}
		}
	}
	if victim < 0 {
		victim = c.pickVictim(base, s)
		oldDirty := c.flags[base+victim]&dirtyBit != 0
		ev = Eviction{Addr: c.reconstruct(si, s.tags[victim]), Dirty: oldDirty}
		evicted = true
		c.stats.Evictions++
		if oldDirty {
			c.stats.DirtyEvictions++
		}
	} else {
		s.nvalid++
	}
	s.tags[victim] = tag
	if c.stamps != nil {
		c.stamps[base+victim] = c.tick
	}
	s.mru = uint8(victim)
	f := uint8(srripInsert << rrpvShift)
	if dirty {
		f |= dirtyBit
	}
	c.flags[base+victim] = f
	c.touchPLRU(s, victim)
	return ev, evicted
}

// SRRIP constants: 2-bit RRPV, insert at "long re-reference".
const (
	srripMax    uint8 = 3
	srripInsert uint8 = 2
)

// srripVictim returns the first way predicted distant (rrpv == max) of
// the set whose per-way flags are flags, aging the set until one exists.
func srripVictim(flags []uint8) int {
	for {
		for i, f := range flags {
			if f>>rrpvShift >= srripMax {
				return i
			}
		}
		for i := range flags {
			flags[i] += 1 << rrpvShift
		}
	}
}

// reconstruct rebuilds a line base address from its tag. Tags store
// the full line address (necessary once set hashing is enabled), so the
// set index is unused.
func (c *Cache) reconstruct(si int, tag uint64) uint64 {
	_ = si
	return tag << c.lineBits
}

// pickVictim picks the way to evict from the full set s, whose ways
// start at index base of the cache's metadata arrays.
func (c *Cache) pickVictim(base int, s *set) int {
	ways := c.cfg.Ways
	switch c.cfg.Policy {
	case LRU, FIFO:
		// Both pick the minimum stamp; the stamp's meaning (last use
		// vs insertion) is fixed per policy by stampOnHit.
		return oldest(c.stamps[base : base+ways])
	case Random:
		return c.rng.Intn(ways)
	case PLRU:
		return c.plruVictim(base, s)
	case QLRU:
		if c.rng.Float64() < c.cfg.RandomMix {
			return c.rng.Intn(ways)
		}
		return c.plruVictim(base, s)
	case SRRIP:
		return srripVictim(c.flags[base : base+ways])
	default:
		panic("cache: unknown policy")
	}
}

func oldest(stamps []uint64) int {
	best, bestKey := 0, ^uint64(0)
	for i, k := range stamps {
		if k < bestKey {
			best, bestKey = i, k
		}
	}
	return best
}

// plruVictim walks the PLRU tree away from recently-used leaves. For
// non-power-of-two way counts it falls back to LRU.
func (c *Cache) plruVictim(base int, s *set) int {
	ways := c.cfg.Ways
	if !c.waysPow2 {
		return oldest(c.stamps[base : base+ways])
	}
	// touchPLRU sets a node's bit when the left half was used recently,
	// so a set bit sends the victim walk right. The walk is branchless:
	// PLRU bits are effectively random, so a conditional here would
	// mispredict half the time at every level.
	idx, node := 0, 1
	for span := ways; span > 1; span >>= 1 {
		b := int((s.plru >> uint(node)) & 1)
		idx += b * (span >> 1)
		node = node*2 + b
	}
	return idx
}

// touchPLRU updates the PLRU tree bits to point away from way i, using
// the masks precomputed in New (no-ops for non-power-of-two way counts).
func (c *Cache) touchPLRU(s *set, i int) {
	s.plru = (s.plru &^ c.plruClr[i]) | c.plruSet[i]
}

// CleanLine transitions the line containing addr from dirty to clean,
// reporting whether it was present and dirty (i.e. a write-back is
// needed). The line remains cached — this is the CLWB semantics.
func (c *Cache) CleanLine(addr uint64) (wasDirty bool) {
	si, tag := c.locate(addr)
	if i := c.sets[si].find(tag); i >= 0 && c.flags[si*c.cfg.Ways+i]&dirtyBit != 0 {
		c.flags[si*c.cfg.Ways+i] &^= dirtyBit
		c.stats.Cleans++
		return true
	}
	return false
}

// Invalidate removes the line containing addr, returning whether it was
// present and whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	si, tag := c.locate(addr)
	s := &c.sets[si]
	if i := s.find(tag); i >= 0 {
		w := si*c.cfg.Ways + i
		present, dirty = true, c.flags[w]&dirtyBit != 0
		s.tags[i] = invalidTag
		if c.stamps != nil {
			c.stamps[w] = 0
		}
		c.flags[w] = 0
		s.nvalid--
		c.stats.Invalidations++
	}
	return present, dirty
}

// DirtyLines calls fn for every dirty line's base address. Iteration
// order is set-major, which approximates the arbitrary order of a
// hardware cache flush.
func (c *Cache) DirtyLines(fn func(addr uint64)) {
	for si := range c.sets {
		for li, tag := range c.sets[si].tags {
			if tag != invalidTag && c.flags[si*c.cfg.Ways+li]&dirtyBit != 0 {
				fn(c.reconstruct(si, tag))
			}
		}
	}
}

// ValidLines returns the number of valid lines (for tests).
func (c *Cache) ValidLines() int {
	n := 0
	for si := range c.sets {
		n += int(c.sets[si].nvalid)
	}
	return n
}

// Stats returns the accumulated counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears the counters but keeps cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Clear invalidates every line without write-backs (for test setup).
func (c *Cache) Clear() {
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	clear(c.stamps)
	clear(c.flags)
	for si := range c.sets {
		c.sets[si].nvalid = 0
		c.sets[si].plru = 0
	}
}
