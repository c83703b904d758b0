package memspace

import (
	"testing"

	"prestores/internal/snap"
	"prestores/internal/xrand"
)

// BenchmarkStore times the backing store's translation path, the
// memspace rung of the layer benchmarks. One op is one ReadU64 in
// sequential (a 64-byte stride through 8 MiB of written pages, so one
// access per page, one in four, misses the translation cache) and
// random (written pages scattered over a 4 GiB heap, so nearly every
// access misses it); one restore of a 256-page snapshot plus the
// copy-on-write first write of one of its pages in restore-cow; and one
// 128-byte Fill at a random 64-byte-aligned address in 8 MiB of written
// pages in fill, as listing2's memsets do.
func BenchmarkStore(b *testing.B) {
	const heapBase = uint64(1) << 40
	b.Run("sequential", func(b *testing.B) {
		const size = 8 << 20
		s := NewStore()
		s.Fill(heapBase, size, 1)
		b.ReportAllocs()
		b.ResetTimer()
		var sum uint64
		for i := 0; i < b.N; i++ {
			sum += s.ReadU64(heapBase + uint64(i)*64%size)
		}
		sink = sum
	})
	b.Run("random", func(b *testing.B) {
		const pages, heap = 4096, uint64(4 << 30)
		s := NewStore()
		rng := xrand.New(1)
		addrs := make([]uint64, pages)
		for i := range addrs {
			addrs[i] = heapBase + rng.Uint64n(heap/PageSize)*PageSize + rng.Uint64n(PageSize/8)*8
			s.WriteU64(addrs[i], uint64(i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		var sum uint64
		for i := 0; i < b.N; i++ {
			sum += s.ReadU64(addrs[i%pages])
		}
		sink = sum
	})
	b.Run("fill", func(b *testing.B) {
		const size, fills = 8 << 20, 4096
		s := NewStore()
		s.Fill(heapBase, size, 1)
		rng := xrand.New(1)
		addrs := make([]uint64, fills)
		for i := range addrs {
			addrs[i] = heapBase + rng.Uint64n(size/64-1)*64
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Fill(addrs[i%fills], 128, byte(i))
		}
	})
	b.Run("restore-cow", func(b *testing.B) {
		const pages = 256
		src := NewStore()
		for i := uint64(0); i < pages; i++ {
			src.WriteU64(heapBase+i*2*PageSize, i+1)
		}
		w := snap.NewWriter()
		src.SnapshotState(w)
		data := w.Finish()
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := NewStore()
			if err := s.RestoreState(snap.NewReader(data)); err != nil {
				b.Fatal(err)
			}
			s.WriteU64(heapBase+uint64(i%pages)*2*PageSize+8, 1)
		}
	})
}

// sink keeps benchmark reads from being optimized away.
var sink uint64
