package flatmap

import (
	"testing"

	"prestores/internal/xrand"
)

func TestBasic(t *testing.T) {
	var m Map[int]
	if _, ok := m.Get(64); ok {
		t.Fatal("empty map claims to hold a key")
	}
	m.Put(64, 1)
	m.Put(128, 2)
	m.Put(64, 3) // replace
	if v, ok := m.Get(64); !ok || v != 3 {
		t.Fatalf("Get(64) = %d,%v; want 3,true", v, ok)
	}
	if v, ok := m.Get(128); !ok || v != 2 {
		t.Fatalf("Get(128) = %d,%v; want 2,true", v, ok)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d; want 2", m.Len())
	}
	m.Delete(64)
	if _, ok := m.Get(64); ok {
		t.Fatal("deleted key still present")
	}
	m.Delete(64) // delete absent: no-op
	if m.Len() != 1 {
		t.Fatalf("Len = %d; want 1", m.Len())
	}
}

func TestZeroKey(t *testing.T) {
	var m Map[string]
	m.Put(0, "zero")
	if v, ok := m.Get(0); !ok || v != "zero" {
		t.Fatalf("Get(0) = %q,%v; want zero,true", v, ok)
	}
	m.Delete(0)
	if _, ok := m.Get(0); ok {
		t.Fatal("Delete(0) did not remove the entry")
	}
}

func TestReservedKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Put(^uint64(0)) did not panic")
		}
	}()
	var m Map[int]
	m.Put(^uint64(0), 1)
}

// TestAgainstBuiltin drives the map with a random op mix and checks
// every observation against a built-in map oracle. Keys are drawn from
// a small space to force collisions, growth, and backshift chains.
func TestAgainstBuiltin(t *testing.T) {
	var m Map[uint64]
	ref := make(map[uint64]uint64)
	rng := xrand.New(7)
	for i := 0; i < 200000; i++ {
		k := rng.Uint64() % 512 * 64 // line-address-like keys
		switch rng.Uint64() % 4 {
		case 0, 1:
			v := rng.Uint64()
			m.Put(k, v)
			ref[k] = v
		case 2:
			m.Delete(k)
			delete(ref, k)
		case 3:
			got, ok := m.Get(k)
			want, okRef := ref[k]
			if ok != okRef || got != want {
				t.Fatalf("op %d: Get(%d) = %d,%v; want %d,%v", i, k, got, ok, want, okRef)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d; want %d", i, m.Len(), len(ref))
		}
	}
	// Final full comparison via Range.
	seen := 0
	m.Range(func(k, v uint64) bool {
		seen++
		if want, ok := ref[k]; !ok || want != v {
			t.Fatalf("Range: entry %d=%d not in oracle (want %d,%v)", k, v, want, ok)
		}
		return true
	})
	if seen != len(ref) {
		t.Fatalf("Range visited %d entries; want %d", seen, len(ref))
	}
}

func TestClear(t *testing.T) {
	var m Map[int]
	for i := uint64(0); i < 100; i++ {
		m.Put(i*64, int(i))
	}
	m.Clear()
	if m.Len() != 0 {
		t.Fatalf("Len after Clear = %d", m.Len())
	}
	for i := uint64(0); i < 100; i++ {
		if _, ok := m.Get(i * 64); ok {
			t.Fatalf("key %d survived Clear", i*64)
		}
	}
	m.Put(64, 7)
	if v, ok := m.Get(64); !ok || v != 7 {
		t.Fatal("map unusable after Clear")
	}
}

// TestNewSized checks that a map sized for n entries takes n Puts
// without growing, and that its table is no larger than growth from
// empty would have made it.
func TestNewSized(t *testing.T) {
	for _, n := range []int{0, 1, 12, 13, 49_700} {
		m := New[int32](n)
		c := m.Cap()
		var grown Map[int32]
		for i := 0; i < n; i++ {
			m.Put(uint64(i)*64, int32(i))
			grown.Put(uint64(i)*64, int32(i))
		}
		if m.Cap() != c {
			t.Errorf("New(%d): table grew from %d to %d slots", n, c, m.Cap())
		}
		if n > 0 && c > grown.Cap() {
			t.Errorf("New(%d): %d slots; growth from empty makes %d", n, c, grown.Cap())
		}
		for i := 0; i < n; i++ {
			if v, ok := m.Get(uint64(i) * 64); !ok || v != int32(i) {
				t.Fatalf("New(%d): Get(%d) = %d, %v", n, i*64, v, ok)
			}
		}
	}
}
