package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestStreamsDiffer(t *testing.T) {
	a, b := NewStream(42, 1), NewStream(42, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 1 and 2 collided %d/100 times", same)
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("different seeds produced identical prefixes")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 200; i++ {
			if v := r.Intn(n); v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nProperty(t *testing.T) {
	r := New(11)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUint64nUniformity(t *testing.T) {
	r := New(3)
	const n, iters = 8, 80000
	var counts [n]int
	for i := 0; i < iters; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(iters) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("bucket %d: %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(5)
	f := func(n uint8) bool {
		size := int(n%64) + 1
		p := r.Perm(size)
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := New(13)
	vals := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range vals {
		sum += v
	}
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	got := 0
	for _, v := range vals {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed elements: sum %d != %d", got, sum)
	}
}

func TestZipfBounds(t *testing.T) {
	z := NewZipf(New(17), 1000, 0.99)
	for i := 0; i < 20000; i++ {
		if v := z.Next(); v >= 1000 {
			t.Fatalf("Zipf.Next() = %d >= n", v)
		}
		if v := z.ScrambledNext(); v >= 1000 {
			t.Fatalf("Zipf.ScrambledNext() = %d >= n", v)
		}
	}
}

// TestZetaMemoBitIdentical checks the memoized zeta against the plain
// n-term loop, bit for bit, on a first (computing) and a later (cached)
// call from concurrent goroutines.
func TestZetaMemoBitIdentical(t *testing.T) {
	ref := func(n uint64, theta float64) float64 {
		var sum float64
		for i := uint64(1); i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	cases := []zetaKey{{1, 0.5}, {2, 0.99}, {1000, 0.99}, {10000, 0.99}, {4000, 0.8}, {12345, 0.3}}
	for round := 0; round < 2; round++ {
		got := make([]float64, len(cases))
		done := make(chan int)
		for i, c := range cases {
			go func() {
				got[i] = zetaOnce(c.n, c.theta)
				done <- i
			}()
		}
		for range cases {
			<-done
		}
		for i, c := range cases {
			if want := ref(c.n, c.theta); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Errorf("round %d: zetaOnce(%d, %g) = %x, loop = %x", round, c.n, c.theta,
					math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(New(23), 10000, 0.99)
	const iters = 100000
	top := 0
	for i := 0; i < iters; i++ {
		if z.Next() < 10 {
			top++
		}
	}
	// With theta=0.99 over 10K items, the top-10 should receive a large
	// share (roughly ln(10)/ln(10000)-ish, far above uniform 0.1%).
	if share := float64(top) / iters; share < 0.15 {
		t.Errorf("top-10 share = %.3f, want >= 0.15 (heavily skewed)", share)
	}
}

func TestZipfPanics(t *testing.T) {
	for _, c := range []struct {
		n     uint64
		theta float64
	}{{0, 0.99}, {10, 0}, {10, 1.0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d, %v) did not panic", c.n, c.theta)
				}
			}()
			NewZipf(New(1), c.n, c.theta)
		}()
	}
}

func TestHash64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	base := Hash64(0x1234567890abcdef)
	diffBits := 0
	for bit := uint(0); bit < 64; bit++ {
		h := Hash64(0x1234567890abcdef ^ 1<<bit)
		x := base ^ h
		for x != 0 {
			diffBits++
			x &= x - 1
		}
	}
	avg := float64(diffBits) / 64
	if avg < 24 || avg > 40 {
		t.Errorf("average flipped bits = %.1f, want ~32", avg)
	}
}
