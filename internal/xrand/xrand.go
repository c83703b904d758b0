// Package xrand provides the deterministic random-number machinery used
// throughout the simulator and the workload generators: a PCG-XSH-RR
// generator, uniform helpers, a Zipfian generator (for YCSB key
// popularity), and slice shuffles.
//
// Determinism matters here: every experiment in the benchmark harness is
// seeded, so each table and figure regenerates identically from run to
// run. The standard library's math/rand would also work, but a local
// generator keeps the stream layout stable across Go releases and lets
// hot simulator paths inline the generator.
package xrand

import (
	"math"
	"sync"
)

// PCG is a PCG-XSH-RR 64/32 pseudo-random generator. The zero value is
// not usable; construct with New.
type PCG struct {
	state uint64
	inc   uint64
}

const pcgMult = 6364136223846793005

// New returns a generator seeded with seed on the default stream.
func New(seed uint64) *PCG {
	return NewStream(seed, 0xda3e39cb94b95bdb)
}

// NewStream returns a generator with an explicit stream selector, so
// that parallel simulated threads can draw from independent sequences.
func NewStream(seed, stream uint64) *PCG {
	p := &PCG{inc: stream<<1 | 1}
	p.state = p.inc + seed
	p.Uint32()
	return p
}

// Uint32 returns the next 32 random bits.
func (p *PCG) Uint32() uint32 {
	old := p.state
	p.state = old*pcgMult + p.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

// Uint64 returns the next 64 random bits.
func (p *PCG) Uint64() uint64 {
	return uint64(p.Uint32())<<32 | uint64(p.Uint32())
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (p *PCG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(p.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (p *PCG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	// Lemire-style rejection-free-ish bounded generation with a
	// threshold retry to remove modulo bias.
	threshold := -n % n
	for {
		v := p.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// Float64 returns a uniform value in [0, 1).
func (p *PCG) Float64() float64 {
	return float64(p.Uint64()>>11) / (1 << 53)
}

// Shuffle pseudo-randomly permutes the first n elements using swap.
func (p *PCG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := p.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (p *PCG) Perm(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	p.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Zipf generates Zipfian-distributed values in [0, n), the standard
// popularity skew used by YCSB. It uses the Gray et al. rejection
// inversion method, matching the YCSB reference generator.
type Zipf struct {
	rng   *PCG
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
}

// NewZipf returns a Zipfian generator over [0, n) with skew theta
// (YCSB default 0.99). It panics if n == 0 or theta is not in (0, 1).
func NewZipf(rng *PCG, n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("xrand: NewZipf with zero n")
	}
	if theta <= 0 || theta >= 1 {
		panic("xrand: NewZipf theta must be in (0, 1)")
	}
	z := &Zipf{rng: rng, n: n, theta: theta}
	z.zetan = zetaOnce(n, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	return z
}

// zetas memoizes zeta(n, theta) per process: a YCSB run builds one
// generator per thread, and the sum is an n-term loop of math.Pow.
// Workloads draw from few (n, theta) pairs; past maxZetas the sum is
// computed without being kept.
var zetas struct {
	mu sync.Mutex
	m  map[zetaKey]float64
}

type zetaKey struct {
	n     uint64
	theta float64
}

const maxZetas = 256

// zetaOnce returns zeta(n, theta), from the memo when an earlier call
// computed it. The value is zeta's own, bit for bit.
func zetaOnce(n uint64, theta float64) float64 {
	k := zetaKey{n, theta}
	zetas.mu.Lock()
	v, ok := zetas.m[k]
	zetas.mu.Unlock()
	if ok {
		return v
	}
	v = zeta(n, theta)
	zetas.mu.Lock()
	defer zetas.mu.Unlock()
	if zetas.m == nil {
		zetas.m = map[zetaKey]float64{}
	}
	if len(zetas.m) < maxZetas {
		zetas.m[k] = v
	}
	return v
}

func zeta(n uint64, theta float64) float64 {
	var sum float64
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next returns the next Zipfian value in [0, n). Value 0 is the most
// popular.
func (z *Zipf) Next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// ScrambledNext returns the next Zipfian value hashed across the full
// key space, as YCSB's "scrambled zipfian" does, so that popular keys
// are not clustered at low addresses.
func (z *Zipf) ScrambledNext() uint64 {
	return Hash64(z.Next()) % z.n
}

// Hash64 is the FNV-1a style finalizer used to scramble Zipfian output.
func Hash64(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}
