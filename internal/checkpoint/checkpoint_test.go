package checkpoint

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestStoreBasics(t *testing.T) {
	s, err := NewStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("empty store hit")
	}
	if s.Misses() != 1 {
		t.Fatalf("misses = %d, want 1", s.Misses())
	}
	s.Put("a", []byte("hello"))
	got, ok := s.Get("a")
	if !ok || string(got) != "hello" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if s.Hits() != 1 || s.Bytes() != 5 || s.Len() != 1 {
		t.Fatalf("hits=%d bytes=%d len=%d", s.Hits(), s.Bytes(), s.Len())
	}
	// Replacing a key adjusts the byte accounting.
	s.Put("a", []byte("hi"))
	if s.Bytes() != 2 || s.Len() != 1 {
		t.Fatalf("after replace: bytes=%d len=%d", s.Bytes(), s.Len())
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s, err := NewStore(100, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Put(fmt.Sprintf("k%d", i), make([]byte, 30))
	}
	if s.Bytes() > 100 {
		t.Fatalf("store over cap: %d bytes", s.Bytes())
	}
	// The oldest keys were evicted, the newest survive.
	if _, ok := s.Get("k0"); ok {
		t.Fatal("k0 survived eviction")
	}
	if _, ok := s.Get("k9"); !ok {
		t.Fatal("k9 evicted")
	}
	// Touching an entry protects it from the next eviction round.
	s.Get("k7")
	s.Put("new1", make([]byte, 30))
	if _, ok := s.Get("k7"); !ok {
		t.Fatal("recently-used k7 evicted before older entries")
	}
	// An oversized entry is kept anyway (hits beat strict caps).
	s.Put("huge", make([]byte, 500))
	if _, ok := s.Get("huge"); !ok {
		t.Fatal("oversized entry not kept")
	}
}

func TestStoreDiskTier(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("deadbeef", []byte("payload"))
	if _, err := os.Stat(filepath.Join(dir, "deadbeef.ckpt")); err != nil {
		t.Fatalf("disk tier file missing: %v", err)
	}
	// A second store over the same directory serves the key from disk.
	s2, err := NewStore(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get("deadbeef")
	if !ok || !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("disk read = %q, %v", got, ok)
	}
	if s2.Hits() != 1 {
		t.Fatalf("disk hit not counted: hits=%d", s2.Hits())
	}
	// No leftover temp files.
	matches, _ := filepath.Glob(filepath.Join(dir, ".ckpt-*"))
	if len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
}

// TestStoreDiskTierRejectsDamage damages disk files in two ways — one
// flipped payload byte, and a file cut shorter than its trailer — and
// requires each to read as a miss that removes the file, never as a hit
// carrying the wrong bytes.
func TestStoreDiskTierRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("PSCK warm state "), 64)
	s.Put("flipped", payload)
	s.Put("short", payload)
	flipped := filepath.Join(dir, "flipped.ckpt")
	data, err := os.ReadFile(flipped)
	if err != nil {
		t.Fatal(err)
	}
	data[len(payload)/2] ^= 0x01
	if err := os.WriteFile(flipped, data, 0o644); err != nil {
		t.Fatal(err)
	}
	short := filepath.Join(dir, "short.ckpt")
	if err := os.WriteFile(short, data[:3], 0o644); err != nil {
		t.Fatal(err)
	}

	fresh, err := NewStore(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"flipped", "short"} {
		if got, ok := fresh.Get(key); ok {
			t.Fatalf("damaged %s file read as a hit (%d bytes)", key, len(got))
		}
		if _, err := os.Stat(filepath.Join(dir, key+".ckpt")); !os.IsNotExist(err) {
			t.Fatalf("damaged %s file not removed: %v", key, err)
		}
	}
	if fresh.Hits() != 0 || fresh.Misses() != 2 {
		t.Fatalf("hits=%d misses=%d; want 0 and 2", fresh.Hits(), fresh.Misses())
	}

	// An intact file still round-trips, trailer stripped.
	s.Put("intact", payload)
	got, ok := fresh.Get("intact")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("intact disk read = %d bytes, %v", len(got), ok)
	}
}

func TestViewCounters(t *testing.T) {
	s, err := NewStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := s.View(), s.View()
	v1.Put("k", []byte("x"))
	v1.Get("k")
	v2.Get("nope")
	if v1.Hits() != 1 || v1.Misses() != 0 {
		t.Fatalf("v1 hits=%d misses=%d", v1.Hits(), v1.Misses())
	}
	if v2.Hits() != 0 || v2.Misses() != 1 {
		t.Fatalf("v2 hits=%d misses=%d", v2.Hits(), v2.Misses())
	}
	// The store aggregates across views.
	if s.Hits() != 1 || s.Misses() != 1 {
		t.Fatalf("store hits=%d misses=%d", s.Hits(), s.Misses())
	}
}

func TestContextPlumbing(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context returned a view")
	}
	s, _ := NewStore(0, "")
	v := s.View()
	ctx := NewContext(context.Background(), v)
	if FromContext(ctx) != v {
		t.Fatal("view lost in context round trip")
	}
}

func TestStoreConcurrent(t *testing.T) {
	s, err := NewStore(1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%40)
				if i%3 == 0 {
					s.Put(key, make([]byte, 100))
				} else {
					s.Get(key)
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
