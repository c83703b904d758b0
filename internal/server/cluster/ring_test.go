package cluster

import (
	"fmt"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	return keys
}

func TestRingStablePlacement(t *testing.T) {
	shards := []string{"http://a", "http://b", "http://c"}
	r1 := NewRing(shards)
	r2 := NewRing(shards)
	for _, k := range testKeys(200) {
		if r1.Owner(k) != r2.Owner(k) {
			t.Fatalf("owner of %q differs between identical rings: %d vs %d", k, r1.Owner(k), r2.Owner(k))
		}
		if got := r1.Owner(k); got != r1.Sequence(k)[0] {
			t.Fatalf("Owner(%q) = %d but Sequence starts with %d", k, got, r1.Sequence(k)[0])
		}
	}
}

func TestRingDistribution(t *testing.T) {
	shards := []string{"http://a", "http://b", "http://c", "http://d"}
	r := NewRing(shards)
	counts := make([]int, len(shards))
	const n = 4000
	for _, k := range testKeys(n) {
		counts[r.Owner(k)]++
	}
	for i, c := range counts {
		// With 128 vnodes per shard the split stays well within 2× of
		// even; the guard is loose to keep the test hash-stable.
		if c < n/len(shards)/2 || c > n*2/len(shards) {
			t.Errorf("shard %d owns %d of %d keys (want roughly %d)", i, c, n, n/len(shards))
		}
	}
}

// TestRingRemovalMovesOnlyDisplacedKeys is the consistent-hashing
// contract the distributed cache depends on: dropping a shard must not
// move any key that shard did not own.
func TestRingRemovalMovesOnlyDisplacedKeys(t *testing.T) {
	full := []string{"http://a", "http://b", "http://c"}
	without := []string{"http://a", "http://c"} // drop b
	rFull := NewRing(full)
	rLess := NewRing(without)
	moved, displaced := 0, 0
	for _, k := range testKeys(1000) {
		ownerFull := full[rFull.Owner(k)]
		ownerLess := without[rLess.Owner(k)]
		if ownerFull == "http://b" {
			displaced++
			// A displaced key must land on its next-on-ring shard:
			// the first non-b entry of the full ring's sequence.
			var want string
			for _, s := range rFull.Sequence(k) {
				if full[s] != "http://b" {
					want = full[s]
					break
				}
			}
			if ownerLess != want {
				t.Fatalf("displaced key %q moved to %s, want next-on-ring %s", k, ownerLess, want)
			}
			continue
		}
		if ownerFull != ownerLess {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d keys not owned by the removed shard changed owner", moved)
	}
	if displaced == 0 {
		t.Fatal("test vacuous: no key was owned by the removed shard")
	}
}

func TestRingSequenceCoversAllShards(t *testing.T) {
	shards := []string{"http://a", "http://b", "http://c"}
	r := NewRing(shards)
	for _, k := range testKeys(50) {
		seq := r.Sequence(k)
		if len(seq) != len(shards) {
			t.Fatalf("Sequence(%q) = %v, want all %d shards", k, seq, len(shards))
		}
		seen := map[int]bool{}
		for _, s := range seq {
			if seen[s] {
				t.Fatalf("Sequence(%q) repeats shard %d: %v", k, s, seq)
			}
			seen[s] = true
		}
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(nil)
	if got := r.Owner("k"); got != -1 {
		t.Fatalf("empty ring Owner = %d, want -1", got)
	}
	if seq := r.Sequence("k"); seq != nil {
		t.Fatalf("empty ring Sequence = %v, want nil", seq)
	}
}
