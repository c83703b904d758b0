package cache

import (
	"testing"

	"prestores/internal/units"
	"prestores/internal/xrand"
)

// The cache rung of the benchmark ladder: a hit, a fill that evicts,
// and construction, for the policies the machine presets use, at
// machine A's LLC geometry (16 ways, 64 B lines, 64k lines) and machine
// B's L1 geometry (32 ways, 128 B lines, 256 lines).

var benchGeometries = []struct {
	name string
	cfg  Config
}{
	{"a-llc", Config{Name: "LLC", Size: 4 * units.MiB, Ways: 16, LineSize: 64, HitLat: 42}},
	{"b-l1", Config{Name: "L1d", Size: 32 * units.KiB, Ways: 32, LineSize: 128, HitLat: 5}},
}

var benchPolicies = []Policy{PLRU, QLRU, LRU, Random}

// benchEach runs fn as one sub-benchmark per geometry and policy.
func benchEach(b *testing.B, fn func(b *testing.B, cfg Config)) {
	for _, g := range benchGeometries {
		for _, p := range benchPolicies {
			cfg := g.cfg
			cfg.Policy, cfg.Seed = p, 1
			b.Run(g.name+"/"+p.String(), func(b *testing.B) { fn(b, cfg) })
		}
	}
}

// fullCache returns a cache for cfg holding lines 0 .. capacity-1,
// every set full, and its capacity in lines.
func fullCache(cfg Config) (*Cache, int) {
	c := New(cfg)
	n := int(cfg.Size / cfg.LineSize)
	for i := 0; i < n; i++ {
		c.Fill(uint64(i)*cfg.LineSize, i%2 == 0)
	}
	return c, n
}

// BenchmarkTouch times a hit on a resident line, the lines visited in
// a fixed random order so the way predictor and the host's caches see
// no pattern.
func BenchmarkTouch(b *testing.B) {
	benchEach(b, func(b *testing.B, cfg Config) {
		c, n := fullCache(cfg)
		rng := xrand.New(3)
		addrs := make([]uint64, 4096)
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(n)) * cfg.LineSize
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !c.Touch(addrs[i&(len(addrs)-1)], i&1 == 0) {
				b.Fatal("a resident line missed")
			}
		}
	})
}

// BenchmarkFill times a fill of a line never seen before into a full
// cache: every fill picks a victim and evicts it.
func BenchmarkFill(b *testing.B) {
	benchEach(b, func(b *testing.B, cfg Config) {
		c, n := fullCache(cfg)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, evicted := c.Fill(uint64(n+i)*cfg.LineSize, i&1 == 0); !evicted {
				b.Fatal("a fill into a full cache evicted nothing")
			}
		}
	})
}

// BenchmarkNew times building an empty cache; its B/op is the memory a
// cache of that geometry and policy holds.
func BenchmarkNew(b *testing.B) {
	benchEach(b, func(b *testing.B, cfg Config) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			New(cfg)
		}
	})
}
