// Package checkpoint provides the content-addressed warm-state store
// behind checkpoint-aware sweeps: encoded sim.Checkpoint payloads keyed
// by warm-run keys (build, workload, machine config and warm params),
// held in a byte-capped in-memory LRU with an optional disk tier.
//
// The store itself is dumb on purpose — it maps opaque keys to opaque
// bytes, and keeps beside them the decoded form a consumer parses them
// into (see Decoded) without looking inside it. All semantics (what a
// key covers, build/config validation) live with the producers: keys
// already encode the build version and machine config hash, and
// consumers re-verify both when decoding, so a stale disk tier can
// cause misses but never wrong results.
//
// Stored bytes are immutable: a slice passed to Put or returned by Get
// is never modified, by the store or by its callers. Consumers rely on
// this to restore warm state without copying it — a machine restored
// from a Get result shares that slice's pages copy-on-write — so a live
// fork keeps its checkpoint bytes reachable even after the LRU has
// evicted the entry.
//
// Disk files carry a CRC-32C trailer, checked on every disk read; a
// short or damaged file is a miss and is removed. The disk tier is the
// only place bytes from outside the process enter, so the memory tier
// never pays for a checksum.
package checkpoint

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"prestores/internal/obs"
)

// DefaultMaxBytes bounds the in-memory tier when the caller passes 0.
const DefaultMaxBytes = 1 << 30 // 1 GiB

// Build returns the running binary's version string — the VCS revision
// when built from a checkout, "dev" otherwise. Warm-run keys embed it
// so that checkpoints never survive a simulator change.
func Build() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	return "dev"
}

type entry struct {
	key  string
	data []byte
	elem *list.Element

	// decoded is a consumer's decoded form of data (see Decoded), nil
	// until a decode succeeds; decodedBytes is its charge against the
	// byte cap. Both are guarded by the store's mutex.
	decoded      any
	decodedBytes int64
}

// size is what the entry charges against the byte cap.
func (e *entry) size() int64 { return int64(len(e.data)) + e.decodedBytes }

// Store is a byte-capped LRU checkpoint cache, safe for concurrent use.
// With a directory configured, every Put also lands on disk
// (atomically, via temp file + rename) and a memory miss falls back to
// a disk read, so checkpoints survive both LRU pressure and process
// restarts.
type Store struct {
	maxBytes int64
	dir      string

	mu      sync.Mutex
	entries map[string]*entry
	lru     *list.List // front = most recently used
	bytes   int64

	hits   atomic.Uint64
	misses atomic.Uint64

	// flight, when set, receives one record per cache decision (admit,
	// evict) so the daemon's flight recorder shows why a sweep suddenly
	// loads cold. Set once before the store is shared; nil is fine.
	flight *obs.FlightRecorder
}

// SetFlight wires the store's cache decisions into a flight recorder.
// Call before the store is shared across goroutines.
func (s *Store) SetFlight(f *obs.FlightRecorder) { s.flight = f }

// NewStore returns a store holding at most maxBytes in memory
// (DefaultMaxBytes when 0). A non-empty dir enables the disk tier; the
// directory is created if missing.
func NewStore(maxBytes int64, dir string) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
	}
	return &Store{
		maxBytes: maxBytes,
		dir:      dir,
		entries:  make(map[string]*entry),
		lru:      list.New(),
	}, nil
}

// diskPath maps a key to its file. Keys are hex SHA-256 strings, so
// they are safe as file names without escaping.
func (s *Store) diskPath(key string) string {
	return filepath.Join(s.dir, key+".ckpt")
}

// crcTable is the Castagnoli polynomial, hardware-accelerated on common
// CPUs.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// trailerLen is the size of the CRC-32C trailer ending each disk file.
const trailerLen = 4

// Get returns the checkpoint stored under key. A memory miss consults
// the disk tier (re-admitting a hit into memory); a disk file that is
// too short for its trailer or fails its checksum is a miss and is
// removed. Hit/miss counters cover the lookup as a whole, not the tiers.
func (s *Store) Get(key string) ([]byte, bool) {
	if e := s.lookup(key); e != nil {
		return e.data, true
	}
	return nil, false
}

// lookup returns key's entry, or nil, and counts the outcome as Get
// documents. An entry's bytes never change: Put replaces the entry.
func (s *Store) lookup(key string) *entry {
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.lru.MoveToFront(e.elem)
		s.mu.Unlock()
		s.hits.Add(1)
		return e
	}
	s.mu.Unlock()
	if s.dir != "" {
		if data, ok := s.readDisk(key); ok {
			e := s.admit(key, data)
			s.hits.Add(1)
			return e
		}
	}
	s.misses.Add(1)
	return nil
}

// readDisk reads key's file and verifies and strips its trailer.
func (s *Store) readDisk(key string) ([]byte, bool) {
	path := s.diskPath(key)
	file, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	n := len(file) - trailerLen
	if n < 0 || crc32.Checksum(file[:n], crcTable) != binary.LittleEndian.Uint32(file[n:]) {
		s.flight.Recordf("ckpt.corrupt", "", "", "%s (%d bytes on disk, removed)", shortKey(key), len(file))
		os.Remove(path)
		return nil, false
	}
	return file[:n:n], true
}

// Put stores data under key, replacing any entry there (and its decoded
// form), evicting least-recently-used entries to stay under the byte
// cap, and writes through to the disk tier if one is configured,
// followed by data's CRC-32C. An entry larger than the
// whole cap is still kept (the alternative — silently never caching —
// would hide every hit).
func (s *Store) Put(key string, data []byte) {
	s.admit(key, data)
	if s.dir != "" {
		tmp, err := os.CreateTemp(s.dir, ".ckpt-*")
		if err != nil {
			return // disk tier is best-effort; memory tier already has it
		}
		name := tmp.Name()
		trailer := binary.LittleEndian.AppendUint32(nil, crc32.Checksum(data, crcTable))
		_, werr := tmp.Write(data)
		if werr == nil {
			_, werr = tmp.Write(trailer)
		}
		cerr := tmp.Close()
		if werr != nil || cerr != nil {
			os.Remove(name)
			return
		}
		if err := os.Rename(name, s.diskPath(key)); err != nil {
			os.Remove(name)
		}
	}
}

// admit makes data key's entry, dropping any entry (and decoded form)
// it replaces, and returns the new entry.
func (s *Store) admit(key string, data []byte) *entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[key]; ok {
		s.lru.Remove(old.elem)
		s.bytes -= old.size()
	} else {
		s.flight.Recordf("ckpt.admit", "", "", "%s (%d bytes)", shortKey(key), len(data))
	}
	e := &entry{key: key, data: data}
	e.elem = s.lru.PushFront(e)
	s.entries[key] = e
	s.bytes += int64(len(data))
	s.evict()
	return e
}

// evict drops least-recently-used entries until the store fits its byte
// cap or holds one entry. s.mu must be held.
func (s *Store) evict() {
	for s.bytes > s.maxBytes && s.lru.Len() > 1 {
		back := s.lru.Back()
		victim := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.entries, victim.key)
		s.bytes -= victim.size()
		s.flight.Recordf("ckpt.evict", "", "", "%s (%d bytes, LRU pressure)",
			shortKey(victim.key), victim.size())
	}
}

func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// Hits returns the number of Get calls answered from either tier.
func (s *Store) Hits() uint64 { return s.hits.Load() }

// Misses returns the number of Get calls answered by neither tier.
func (s *Store) Misses() uint64 { return s.misses.Load() }

// Bytes returns the in-memory tier's current size.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Len returns the number of in-memory entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// View wraps a store with per-consumer hit/miss counters, so a daemon
// job (or one CLI sweep) can report its own checkpoint behaviour while
// sharing the process-wide store.
type View struct {
	store  *Store
	hits   atomic.Uint64
	misses atomic.Uint64
}

// View returns a new per-consumer view of the store.
func (s *Store) View() *View { return &View{store: s} }

// Get looks up key, counting the outcome on both the view and the
// underlying store.
func (v *View) Get(key string) ([]byte, bool) {
	if e := v.lookup(key); e != nil {
		return e.data, true
	}
	return nil, false
}

func (v *View) lookup(key string) *entry {
	e := v.store.lookup(key)
	if e != nil {
		v.hits.Add(1)
	} else {
		v.misses.Add(1)
	}
	return e
}

// Decoded returns the entry under key in the form decode parses its
// bytes into, counting the lookup as Get does. The first call after the
// entry is admitted decodes it, and the store keeps the result beside
// the bytes, charged to the byte cap with the size decode reports, so
// later calls share it until the entry is evicted or replaced by Put.
// An absent entry or a decode error is an error, and a failed decode
// keeps nothing. Every caller shares the decoded form and must not
// modify it. All callers of one key must pass the same decoder.
func Decoded[T any](v *View, key string, decode func([]byte) (T, int64, error)) (T, error) {
	var zero T
	e := v.lookup(key)
	if e == nil {
		return zero, fmt.Errorf("checkpoint: %s not stored", shortKey(key))
	}
	s := v.store
	s.mu.Lock()
	kept := e.decoded
	s.mu.Unlock()
	if kept != nil {
		return kept.(T), nil
	}
	d, size, err := decode(e.data)
	if err != nil {
		return zero, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.decoded != nil { // a concurrent call kept its decode first
		return e.decoded.(T), nil
	}
	if s.entries[key] == e { // not evicted or replaced meanwhile
		e.decoded, e.decodedBytes = d, size
		s.bytes += size
		s.evict()
	}
	return d, nil
}

// Put stores data under key in the underlying store.
func (v *View) Put(key string, data []byte) { v.store.Put(key, data) }

// Hits returns this view's hit count.
func (v *View) Hits() uint64 { return v.hits.Load() }

// Misses returns this view's miss count.
func (v *View) Misses() uint64 { return v.misses.Load() }
