// Package flatmap provides an open-addressed hash map keyed by uint64,
// tuned for the simulator's hot per-line state tables (coherence
// directory, write-back queue, store-buffer index).
//
// Compared to the built-in map it trades generality for speed: linear
// probing over a flat key array keeps the probe loop branch-light and
// cache-friendly, and there is no per-entry allocation or tombstone
// accumulation (deletions use backward-shift compaction).
//
// The key ^uint64(0) is reserved as the empty-slot sentinel. All
// intended users key on cache-line base addresses, which are at least
// 8-byte aligned, so the sentinel can never collide with a real key;
// Put panics on it to keep misuse loud.
package flatmap

// empty marks an unoccupied slot.
const empty = ^uint64(0)

// minCap is the initial table size (power of two).
const minCap = 16

// Map is an open-addressed uint64-keyed hash map. The zero value is
// ready to use. It is not safe for concurrent use.
type Map[V any] struct {
	keys  []uint64
	vals  []V
	n     int
	mask  uint64
	shift uint
}

// New returns an empty map sized to hold n entries without growing.
func New[V any](n int) Map[V] {
	c := minCap
	for 4*n > 3*c {
		c *= 2
	}
	var m Map[V]
	m.alloc(c)
	return m
}

// alloc (re)allocates the table with the given power-of-two capacity.
func (m *Map[V]) alloc(capacity int) {
	m.keys = make([]uint64, capacity)
	for i := range m.keys {
		m.keys[i] = empty
	}
	m.vals = make([]V, capacity)
	m.mask = uint64(capacity - 1)
	m.shift = 64
	for c := capacity; c > 1; c >>= 1 {
		m.shift--
	}
	m.n = 0
}

// home returns the preferred slot for key k (Fibonacci hashing: the
// multiplier is 2^64/phi, whose high bits mix all key bits).
func (m *Map[V]) home(k uint64) uint64 {
	return (k * 0x9e3779b97f4a7c15) >> m.shift
}

// Len returns the number of entries.
func (m *Map[V]) Len() int { return m.n }

// Cap returns the number of slots in the table.
func (m *Map[V]) Cap() int { return len(m.keys) }

// Get returns the value stored for k, or the zero value.
func (m *Map[V]) Get(k uint64) (V, bool) {
	if m.n == 0 {
		var zero V
		return zero, false
	}
	i := m.home(k)
	for {
		kk := m.keys[i]
		if kk == k {
			return m.vals[i], true
		}
		if kk == empty {
			var zero V
			return zero, false
		}
		i = (i + 1) & m.mask
	}
}

// Put stores v for k, replacing any existing value.
func (m *Map[V]) Put(k uint64, v V) {
	if k == empty {
		panic("flatmap: reserved key")
	}
	if m.keys == nil {
		m.alloc(minCap)
	}
	i := m.home(k)
	for {
		kk := m.keys[i]
		if kk == k {
			m.vals[i] = v
			return
		}
		if kk == empty {
			break
		}
		i = (i + 1) & m.mask
	}
	// Keep load below 3/4 so probe chains stay short.
	if 4*(m.n+1) > 3*len(m.keys) {
		m.grow()
		i = m.home(k)
		for m.keys[i] != empty {
			i = (i + 1) & m.mask
		}
	}
	m.keys[i] = k
	m.vals[i] = v
	m.n++
}

func (m *Map[V]) grow() {
	oldKeys, oldVals := m.keys, m.vals
	m.alloc(2 * len(oldKeys))
	for i, k := range oldKeys {
		if k == empty {
			continue
		}
		j := m.home(k)
		for m.keys[j] != empty {
			j = (j + 1) & m.mask
		}
		m.keys[j] = k
		m.vals[j] = oldVals[i]
		m.n++
	}
}

// Delete removes k if present, using backward-shift compaction so later
// probes stay short and no tombstones accumulate.
func (m *Map[V]) Delete(k uint64) {
	if m.n == 0 {
		return
	}
	i := m.home(k)
	for {
		kk := m.keys[i]
		if kk == empty {
			return
		}
		if kk == k {
			break
		}
		i = (i + 1) & m.mask
	}
	m.n--
	j := i
	for {
		j = (j + 1) & m.mask
		kk := m.keys[j]
		if kk == empty {
			break
		}
		// Slot j may move into the hole at i only if its home position
		// does not lie strictly inside (i, j] on the probe circle —
		// otherwise the move would break j's own probe chain.
		if (j-m.home(kk))&m.mask >= (j-i)&m.mask {
			m.keys[i] = kk
			m.vals[i] = m.vals[j]
			i = j
		}
	}
	var zero V
	m.keys[i] = empty
	m.vals[i] = zero
}

// Clear removes all entries but keeps the table capacity.
func (m *Map[V]) Clear() {
	if m.n == 0 {
		return
	}
	for i := range m.keys {
		m.keys[i] = empty
	}
	clear(m.vals)
	m.n = 0
}

// Range calls fn for every entry until fn returns false. The map must
// not be mutated during iteration.
func (m *Map[V]) Range(fn func(k uint64, v V) bool) {
	for i, k := range m.keys {
		if k == empty {
			continue
		}
		if !fn(k, m.vals[i]) {
			return
		}
	}
}
