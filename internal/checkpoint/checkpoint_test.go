package checkpoint

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

// counted is a decoder for the decoded-form tests: it parses an entry
// into its string, charged at twice the entry's length, fails on bytes
// starting with '!', and counts its calls.
type counted struct {
	mu    sync.Mutex
	calls int
}

func (c *counted) decode(data []byte) (string, int64, error) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	if len(data) > 0 && data[0] == '!' {
		return "", 0, errors.New("bad entry")
	}
	return string(data), 2 * int64(len(data)), nil
}

func (c *counted) n() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// TestDecodedKeptWithEntry checks the decoded form's life: decoded once
// and charged to the byte cap, dropped (and decoded again) after a
// re-Put and after eviction, never kept for bytes that fail to decode,
// and counted on the view as a Get.
func TestDecodedKeptWithEntry(t *testing.T) {
	s, err := NewStore(100, "")
	if err != nil {
		t.Fatal(err)
	}
	v := s.View()
	var dec counted
	get := func(key, want string) {
		t.Helper()
		got, err := Decoded(v, key, dec.decode)
		if err != nil || got != want {
			t.Fatalf("Decoded(%q) = %q, %v; want %q", key, got, err, want)
		}
	}
	s.Put("a", []byte("0123456789"))
	get("a", "0123456789")
	get("a", "0123456789")
	if dec.n() != 1 || s.Bytes() != 30 {
		t.Fatalf("after two lookups: %d decodes, %d bytes; want 1 decode, 30 bytes", dec.n(), s.Bytes())
	}

	s.Put("a", []byte("abcde"))
	if s.Bytes() != 5 {
		t.Fatalf("a re-Put kept the old decoded form: %d bytes, want 5", s.Bytes())
	}
	get("a", "abcde")
	if dec.n() != 2 {
		t.Fatalf("%d decodes after a re-Put; want 2", dec.n())
	}

	s.Put("bad", []byte("!corrupt"))
	for i := 0; i < 2; i++ {
		if _, err := Decoded(v, "bad", dec.decode); err == nil {
			t.Fatal("a failed decode returned no error")
		}
	}
	if s.Bytes() != 15+8 || dec.n() != 4 {
		t.Fatalf("after two failed decodes: %d bytes, %d decodes; want 23 bytes, 4 decodes", s.Bytes(), dec.n())
	}
	if _, err := Decoded(v, "absent", dec.decode); err == nil {
		t.Fatal("Decoded of an absent key returned no error")
	}
	if v.Hits() != 5 || v.Misses() != 1 {
		t.Fatalf("view counts %d hits, %d misses; want 5, 1", v.Hits(), v.Misses())
	}

	// "a" is least recently used: charging "c"'s decoded form evicts it,
	// with its own decoded form.
	c := strings.Repeat("c", 30)
	s.Put("c", []byte(c))
	get("c", c)
	if _, ok := s.Get("a"); ok {
		t.Fatal("a decoded form's charge evicted nothing")
	}
	if s.Bytes() != 8+90 {
		t.Fatalf("%d bytes after eviction; want 98", s.Bytes())
	}
}

// TestDecodedAfterDiskReread evicts a decoded entry from memory and
// reads it back from the disk tier: the re-read is a new entry, decoded
// again.
func TestDecodedAfterDiskReread(t *testing.T) {
	s, err := NewStore(40, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	v := s.View()
	var dec counted
	s.Put("a", []byte("0123456789"))
	if _, err := Decoded(v, "a", dec.decode); err != nil {
		t.Fatal(err)
	}
	s.Put("b", make([]byte, 40)) // evicts "a" from memory only
	got, err := Decoded(v, "a", dec.decode)
	if err != nil || got != "0123456789" {
		t.Fatalf("Decoded after eviction = %q, %v", got, err)
	}
	if dec.n() != 2 {
		t.Fatalf("%d decodes; want 2 (the disk re-read decodes again)", dec.n())
	}
}

// TestDecodedConcurrent races lookups of one entry against re-Puts of
// it (run under -race): every lookup sees the form of bytes that were
// stored, and the byte count ends exact.
func TestDecodedConcurrent(t *testing.T) {
	s, err := NewStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	var dec counted
	s.Put("k", []byte("first"))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := s.View()
			for i := 0; i < 200; i++ {
				if g == 0 && i%10 == 0 {
					s.Put("k", []byte("second"))
				}
				got, err := Decoded(v, "k", dec.decode)
				if err != nil || (got != "first" && got != "second") {
					t.Errorf("Decoded = %q, %v", got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, err := Decoded(s.View(), "k", dec.decode)
	if err != nil || got != "second" || s.Bytes() != 18 {
		t.Fatalf("final Decoded = %q, %v with %d bytes; want second, 18 bytes", got, err, s.Bytes())
	}
}
