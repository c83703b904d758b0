// Package memspace provides the simulated physical address space: a
// sparse byte-addressable backing store plus a region allocator that
// hands out address ranges inside per-device windows.
//
// The backing store holds real bytes so that workloads built on the
// simulator (key-value stores, matrices, message rings) are functionally
// correct, not just timing models: a value written through the simulated
// hierarchy reads back byte-identical.
//
// The store pages memory at 256 bytes (PageSize, which says why) under
// one two-level page table of 8 KiB directories and leaves.
package memspace

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"prestores/internal/units"
)

// PageSize is the granularity of the sparse backing store, and so of
// what a restored store copies on its first write to a page (see
// Store) and of what a snapshot holds around each written byte. 256
// bytes keeps both close to the 64-byte lines a run actually writes: a
// device-style block much larger than the lines dirtied would carry
// mostly bytes nobody wrote.
const PageSize = 1 << pageShift

const pageShift = 8

// leafShift sets a leaf's span in pages: 1,024 page slots, 256 KiB of
// address space.
const leafShift = 10

const leafPages = 1 << leafShift

// extentShift sets an extent's span in pages: 256 MiB of address space,
// aligned to its size. Its directory holds 1,024 leaves, so a
// directory and a full leaf each cost 8 KiB.
const extentShift = 28 - pageShift

const extentLeaves = 1 << (extentShift - leafShift)

// Private pages are carved from slabs of slabMin pages (4 KiB),
// doubling per slab up to slabMax (256 KiB), so a store makes one
// allocation per slab rather than one per page.
const (
	slabMin = 4 << 10 / PageSize
	slabMax = 256 << 10 / PageSize
)

type page [PageSize]byte

// zeroPage backs reads of never-written memory: a nil page's bytes are
// copied from here instead of being zeroed one byte at a time.
var zeroPage page

// leaf holds leafPages consecutive page slots. Bit k of shared, one
// bit per slot, marks pages[k] as aliasing restored checkpoint bytes.
type leaf struct {
	pages  [leafPages]*page
	shared [leafPages / 64]uint64
}

// isShared reports whether slot k aliases restored bytes.
func (l *leaf) isShared(k uint64) bool { return l.shared[k>>6]&(1<<(k&63)) != 0 }

// setShared marks slot k as aliasing restored bytes.
func (l *leaf) setShared(k uint64) { l.shared[k>>6] |= 1 << (k & 63) }

// setPrivate clears slot k's shared mark.
func (l *leaf) setPrivate(k uint64) { l.shared[k>>6] &^= 1 << (k & 63) }

// extent is the two-level page table over one aligned 256 MiB span:
// page number pn lives in slot pn&(leafPages-1) of leaf
// (pn>>leafShift)&(extentLeaves-1). An extent exists once a page in its
// span has been written (or restored), and its leaves exist only where
// pages are, so a scattered few pages in a 4 GiB heap cost a few 8 KiB
// directories.
type extent struct {
	num    uint64 // pn >> extentShift: which 256 MiB span
	leaves *[extentLeaves]*leaf
}

// Store is a sparse byte-addressable memory. The zero value is empty
// and ready to use; unwritten bytes read as zero.
//
// A restored store shares its pages with the checkpoint bytes it was
// restored from (see RestoreState): a shared page is read in place and
// copied into a private page on its first write, so the source bytes
// are never modified and two stores restored from one buffer never see
// each other's writes.
type Store struct {
	// Translation caches: the vast majority of accesses are sub-page
	// sequential or re-touch the same page, so remembering the last
	// translation turns the common case into two compares. lastPage is
	// writable and never holds a shared page; reads that resolve to a
	// shared page remember it in roPage instead, and copying that page
	// on a write clears it.
	lastPN   uint64
	lastPage *page
	roPN     uint64
	roPage   *page

	extents []extent // sorted by num

	// slab holds the pages not yet handed out by newPage; slabNext is
	// the size of the next slab.
	slab     []page
	slabNext int
}

// NewStore returns an empty sparse store.
func NewStore() *Store { return &Store{} }

// leafFor returns the leaf holding page pn's slot, or nil when none
// exists. With create set it makes the extent and leaf if absent.
func (s *Store) leafFor(pn uint64, create bool) *leaf {
	num := pn >> extentShift
	i, hi := 0, len(s.extents)
	for i < hi {
		mid := int(uint(i+hi) >> 1)
		if s.extents[mid].num < num {
			i = mid + 1
		} else {
			hi = mid
		}
	}
	if i == len(s.extents) || s.extents[i].num != num {
		if !create {
			return nil
		}
		s.extents = slices.Insert(s.extents, i, extent{num: num, leaves: new([extentLeaves]*leaf)})
	}
	slot := &s.extents[i].leaves[(pn>>leafShift)&(extentLeaves-1)]
	if *slot == nil && create {
		*slot = new(leaf)
	}
	return *slot
}

// newPage returns a zeroed private page carved from the store's slab.
func (s *Store) newPage() *page {
	if len(s.slab) == 0 {
		s.slabNext = min(max(2*s.slabNext, slabMin), slabMax)
		s.slab = make([]page, s.slabNext)
	}
	p := &s.slab[0]
	s.slab = s.slab[1:]
	return p
}

// pageFor translates addr to its page and the offset within it. With
// create set the page is materialized if absent and is private to this
// store, so the caller may write it; without, it may be nil (never
// written) or shared, and the caller must only read it. A shared page is
// copied before it is handed out for writing, and each translation
// refills the matching translation cache.
func (s *Store) pageFor(addr uint64, create bool) (*page, uint64) {
	pn := addr >> pageShift
	off := addr & (PageSize - 1)
	if s.lastPage != nil && pn == s.lastPN {
		return s.lastPage, off
	}
	if !create && s.roPage != nil && pn == s.roPN {
		return s.roPage, off
	}
	var p *page
	var shared bool
	k := pn & (leafPages - 1)
	l := s.leafFor(pn, false)
	if l != nil {
		p, shared = l.pages[k], l.isShared(k)
	}
	switch {
	case p == nil && !create:
		return nil, off
	case shared && !create:
		s.roPN, s.roPage = pn, p
		return p, off
	case p == nil || shared:
		c := s.newPage()
		if p != nil {
			*c = *p
			if s.roPN == pn {
				s.roPage = nil
			}
		}
		p = c
		if l == nil {
			l = s.leafFor(pn, true)
		}
		l.pages[k] = p
		l.setPrivate(k)
	}
	s.lastPN, s.lastPage = pn, p
	return p, off
}

// present calls fn for each materialized page in ascending page-number
// order.
func (s *Store) present(fn func(pn uint64, p *page)) {
	for _, e := range s.extents {
		for li, l := range e.leaves {
			if l == nil {
				continue
			}
			for k, p := range l.pages {
				if p != nil {
					fn(e.num<<extentShift|uint64(li)<<leafShift|uint64(k), p)
				}
			}
		}
	}
}

// Write copies data into the store at addr.
func (s *Store) Write(addr uint64, data []byte) {
	for len(data) > 0 {
		p, off := s.pageFor(addr, true)
		n := copy(p[off:], data)
		data = data[n:]
		addr += uint64(n)
	}
}

// Read copies len(buf) bytes starting at addr into buf. Unwritten
// bytes read as zero.
func (s *Store) Read(addr uint64, buf []byte) {
	for len(buf) > 0 {
		p, off := s.pageFor(addr, false)
		n := PageSize - int(off)
		if n > len(buf) {
			n = len(buf)
		}
		if p == nil {
			p = &zeroPage
		}
		copy(buf[:n], p[off:])
		buf = buf[n:]
		addr += uint64(n)
	}
}

// WriteU64 stores v little-endian at addr.
func (s *Store) WriteU64(addr, v uint64) {
	if PageSize-(addr&(PageSize-1)) >= 8 {
		p, off := s.pageFor(addr, true)
		binary.LittleEndian.PutUint64(p[off:], v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	s.Write(addr, b[:])
}

// ReadU64 loads a little-endian uint64 from addr.
func (s *Store) ReadU64(addr uint64) uint64 {
	if PageSize-(addr&(PageSize-1)) >= 8 {
		p, off := s.pageFor(addr, false)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(p[off:])
	}
	var b [8]byte
	s.Read(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// Fill sets n bytes starting at addr to v.
func (s *Store) Fill(addr uint64, n uint64, v byte) {
	for n > 0 {
		p, off := s.pageFor(addr, true)
		chunk := PageSize - off
		if chunk > n {
			chunk = n
		}
		// Set one byte, then double the set prefix with copy.
		seg := p[off : off+chunk]
		seg[0] = v
		for k := 1; k < len(seg); k *= 2 {
			copy(seg[k:], seg[:k])
		}
		addr += chunk
		n -= chunk
	}
}

// PagesAllocated returns the number of backing pages materialized so
// far (a measure of simulated footprint).
func (s *Store) PagesAllocated() int {
	n := 0
	s.present(func(uint64, *page) { n++ })
	return n
}

// Region is a named, allocated address range bound to a device window.
type Region struct {
	Name string
	Base uint64
	Size uint64
	// Window identifies the device window the region was carved from.
	Window string
}

// End returns the first address past the region.
func (r Region) End() uint64 { return r.Base + r.Size }

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint64) bool {
	return addr >= r.Base && addr < r.Base+r.Size
}

// Window is an address range served by one memory device.
type Window struct {
	Name string
	Base uint64
	Size uint64
	next uint64 // bump pointer
}

// Arena allocates regions inside device windows. Windows must not
// overlap; Arena validates this at AddWindow time.
type Arena struct {
	windows map[string]*Window
	regions []Region
	sorted  []*Window // by base, for address->window lookup
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{windows: make(map[string]*Window)}
}

// AddWindow registers an address window served by a device.
func (a *Arena) AddWindow(name string, base, size uint64) error {
	if _, dup := a.windows[name]; dup {
		return fmt.Errorf("memspace: duplicate window %q", name)
	}
	for _, w := range a.sorted {
		if base < w.Base+w.Size && w.Base < base+size {
			return fmt.Errorf("memspace: window %q [%#x,%#x) overlaps %q", name, base, base+size, w.Name)
		}
	}
	w := &Window{Name: name, Base: base, Size: size, next: base}
	a.windows[name] = w
	a.sorted = append(a.sorted, w)
	sort.Slice(a.sorted, func(i, j int) bool { return a.sorted[i].Base < a.sorted[j].Base })
	return nil
}

// Alloc carves an aligned region out of the named window.
func (a *Arena) Alloc(window, name string, size, align uint64) (Region, error) {
	w, ok := a.windows[window]
	if !ok {
		return Region{}, fmt.Errorf("memspace: unknown window %q", window)
	}
	if size == 0 {
		return Region{}, fmt.Errorf("memspace: zero-size allocation %q", name)
	}
	if align == 0 {
		align = 1
	}
	if !units.IsPow2(align) {
		return Region{}, fmt.Errorf("memspace: alignment %d is not a power of two", align)
	}
	base := units.AlignUp(w.next, align)
	if base+size > w.Base+w.Size {
		return Region{}, fmt.Errorf("memspace: window %q exhausted: need %s, %s free",
			window, units.Bytes(size), units.Bytes(w.Base+w.Size-w.next))
	}
	w.next = base + size
	r := Region{Name: name, Base: base, Size: size, Window: window}
	a.regions = append(a.regions, r)
	return r, nil
}

// MustAlloc is Alloc but panics on failure; used by workloads whose
// footprints are fixed by the experiment configuration.
func (a *Arena) MustAlloc(window, name string, size, align uint64) Region {
	r, err := a.Alloc(window, name, size, align)
	if err != nil {
		panic(err)
	}
	return r
}

// WindowOf returns the name of the window containing addr, or "".
func (a *Arena) WindowOf(addr uint64) string {
	i := sort.Search(len(a.sorted), func(i int) bool { return a.sorted[i].Base+a.sorted[i].Size > addr })
	if i < len(a.sorted) && addr >= a.sorted[i].Base {
		return a.sorted[i].Name
	}
	return ""
}

// RegionOf returns the allocated region containing addr, if any.
func (a *Arena) RegionOf(addr uint64) (Region, bool) {
	for _, r := range a.regions {
		if r.Contains(addr) {
			return r, true
		}
	}
	return Region{}, false
}

// Regions returns all allocations made so far, in allocation order.
func (a *Arena) Regions() []Region {
	return append([]Region(nil), a.regions...)
}

// Reset rewinds every window's bump pointer and forgets regions. The
// backing Store is not cleared; callers that reuse an arena across
// experiment repetitions rely on re-initializing their data.
func (a *Arena) Reset() {
	for _, w := range a.windows {
		w.next = w.Base
	}
	a.regions = a.regions[:0]
}
