package telemetry

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"prestores/internal/checkpoint"
	"prestores/internal/core"
	"prestores/internal/sim"
	"prestores/internal/snap"
	"prestores/internal/xrand"
)

func reportJSON(t *testing.T, rep *LineReport) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := rep.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestLineReportTopMatchesFullSort checks the bounded-heap selection
// against a sort of every tracked line, with many ties on Writes across
// machines and addresses (the tiebreaks decide which lines are kept).
func TestLineReportTopMatchesFullSort(t *testing.T) {
	r := New(Config{LineReport: true})
	rng := xrand.New(5)
	for mi := 0; mi < 3; mi++ {
		ms := &machineState{idx: uint16(mi), name: "m", lineSize: 64}
		r.machines = append(r.machines, ms)
		for i := 0; i < 400; i++ {
			// Few distinct write counts and a small address range: most
			// lines tie on Writes, and addresses repeat across machines.
			addr := uint64(rng.Intn(600)) * 64
			if ms.lines.get(addr) != nil {
				continue
			}
			li := ms.lines.add(addr)
			li.writes = uint64(rng.Intn(4))
			li.Rewrites, li.Written = uint64(i), true
			r.nlines++
		}
	}

	full := r.LineReport(0)
	want := append([]LineStat(nil), full.Lines...)
	sort.Slice(want, func(i, j int) bool {
		a, b := want[i], want[j]
		if a.Writes != b.Writes {
			return a.Writes > b.Writes
		}
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		return a.Addr < b.Addr
	})
	if len(want) != r.nlines {
		t.Fatalf("full report has %d lines, recorder tracks %d", len(want), r.nlines)
	}
	for i := range want {
		if full.Lines[i] != want[i] {
			t.Fatalf("full report line %d = %+v, want %+v", i, full.Lines[i], want[i])
		}
	}
	for _, k := range []int{1, 2, 3, 17, 256, len(want) - 1, len(want), len(want) + 9} {
		got := r.LineReport(k)
		ref := *full
		ref.Lines = want[:min(k, len(want))]
		if !bytes.Equal(reportJSON(t, got), reportJSON(t, &ref)) {
			t.Errorf("LineReport(%d) differs from the full sort truncated to %d lines", k, k)
		}
	}
}

// phase1 and phase2 are a small run split at a warm boundary: phase 2
// re-writes and re-reads lines phase 1 wrote.
func phase1(m *sim.Machine) {
	c := m.Core(0)
	buf := make([]byte, 256)
	for i := uint64(0); i < 120; i++ {
		c.Write(base+i*256, buf)
	}
	c.Fence()
}

func phase2(m *sim.Machine) {
	c := m.Core(0)
	buf := make([]byte, 64)
	for i := uint64(0); i < 60; i++ {
		c.Write(base+i*512, buf)
		c.ReadU64(base + i*256 + 128)
	}
	m.FlushCaches()
}

// savedState runs phase 1 on a fresh machine under a fresh recorder and
// returns the recorder state and machine checkpoint at the boundary,
// plus the line report the whole cold run produces.
func savedState(t *testing.T, cfg Config) (state []byte, ck *sim.Checkpoint, cold []byte) {
	t.Helper()
	rec := New(cfg)
	m := sim.MachineA()
	f := rec.AttachFork(m)
	phase1(m)
	state, ok := f.Save()
	if !ok {
		t.Fatal("Save refused a state with no dropped lines")
	}
	ck, err := m.NewCheckpoint("test", nil)
	if err != nil {
		t.Fatal(err)
	}
	phase2(m)
	return state, ck, reportJSON(t, rec.LineReport(0))
}

// stateKey is the key stored states live under in the tests' stores.
const stateKey = "recorder-state"

// storeOf returns a fresh in-memory checkpoint store holding data under
// stateKey.
func storeOf(t testing.TB, data []byte) *checkpoint.Store {
	t.Helper()
	st, err := checkpoint.NewStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	st.Put(stateKey, data)
	return st
}

func TestForkRestoreMatchesColdRun(t *testing.T) {
	cfg := Config{LineReport: true, BucketBytes: 4096}
	state, ck, cold := savedState(t, cfg)
	view := storeOf(t, state).View()

	// A recorder that already holds another machine's lines: the forked
	// machine is its second.
	rec := New(cfg)
	other := sim.MachineA()
	rec.Attach(other)
	phase1(other)
	m := sim.MachineA()
	f := rec.AttachFork(m)
	m.Core(0).WriteU64(base+1<<20, 1) // events before the boundary are replaced
	if err := f.Restore(view, stateKey); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if err := ck.Restore(m); err != nil {
		t.Fatal(err)
	}
	phase2(m)

	// The cold run alone, as the same second machine.
	ref := New(cfg)
	refOther := sim.MachineA()
	ref.Attach(refOther)
	phase1(refOther)
	refM := sim.MachineA()
	ref.Attach(refM)
	phase1(refM)
	phase2(refM)

	if got, want := reportJSON(t, rec.LineReport(0)), reportJSON(t, ref.LineReport(0)); !bytes.Equal(got, want) {
		t.Errorf("forked report differs from the cold run's:\n%s\nwant:\n%s", got, want)
	}
	// Alone in its recorder, the fork's share is the saved run's report.
	solo := New(cfg)
	sm := sim.MachineA()
	if err := solo.AttachFork(sm).Restore(view, stateKey); err != nil {
		t.Fatal(err)
	}
	if err := ck.Restore(sm); err != nil {
		t.Fatal(err)
	}
	phase2(sm)
	if got := reportJSON(t, solo.LineReport(0)); !bytes.Equal(got, cold) {
		t.Errorf("forked report differs from the saving run's:\n%s\nwant:\n%s", got, cold)
	}
}

func TestForkRestoreRejectsWithoutChange(t *testing.T) {
	cfg := Config{LineReport: true}
	state, _, _ := savedState(t, cfg)

	fresh := func(cfg Config) (*Recorder, *Fork) {
		rec := New(cfg)
		m := sim.MachineA()
		f := rec.AttachFork(m)
		m.Core(0).WriteU64(base, 1)
		return rec, f
	}
	check := func(name string, cfg Config, data []byte) {
		t.Helper()
		rec, f := fresh(cfg)
		before := reportJSON(t, rec.LineReport(0))
		if err := f.Restore(storeOf(t, data).View(), stateKey); err == nil {
			t.Errorf("%s: Restore accepted the state", name)
		}
		if after := reportJSON(t, rec.LineReport(0)); !bytes.Equal(before, after) {
			t.Errorf("%s: a failed Restore changed the recorder", name)
		}
	}

	for n := 0; n < len(state); n += 1 + n/8 {
		check("truncated", cfg, state[:n])
	}
	for i := 0; i < len(state); i += 1 + i/4 {
		bad := append([]byte(nil), state...)
		bad[i] ^= 0x10
		check("bit flip", cfg, bad)
	}
	check("other bucket size", Config{LineReport: true, BucketBytes: 4096}, state)
	other, err := decodeState(state)
	if err != nil {
		t.Fatal(err)
	}
	other.nearRewrite = 10
	check("saved under another near-rewrite threshold", cfg, other.encode())
	check("over the line cap", Config{LineReport: true, MaxLines: 50}, state)
	rec, f := fresh(cfg)
	before := reportJSON(t, rec.LineReport(0))
	if err := f.Restore(storeOf(t, state).View(), "absent"); err == nil {
		t.Error("Restore of an absent key succeeded")
	}
	if after := reportJSON(t, rec.LineReport(0)); !bytes.Equal(before, after) {
		t.Error("a Restore of an absent key changed the recorder")
	}
}

func TestForkSaveRefusesDroppedLines(t *testing.T) {
	rec := New(Config{LineReport: true, MaxLines: 8})
	m := sim.MachineA()
	f := rec.AttachFork(m)
	phase1(m)
	if _, ok := f.Save(); ok {
		t.Error("Save accepted a state whose lines were dropped at the cap")
	}
}

func TestAttachForkOnlyForLineReports(t *testing.T) {
	for _, cfg := range []Config{{Timeline: true}, {Timeline: true, LineReport: true}, {}} {
		if f := New(cfg).AttachFork(sim.MachineA()); f != nil {
			t.Errorf("config %+v: AttachFork returned a fork", cfg)
		}
	}
}

// FuzzDecodeState feeds the recorder-state decoder bytes as a damaged
// store or disk-tier entry would: it must never panic, a decoded state
// must re-encode to the same bytes (the encoding is canonical), and the
// structural checks behind the checksum are reached by also decoding
// the input with a valid checksum appended.
func FuzzDecodeState(f *testing.F) {
	rec := New(Config{LineReport: true})
	m := sim.MachineA()
	fork := rec.AttachFork(m)
	for i := uint64(0); i < 12; i++ { // a small seed keeps mutation cheap
		m.Core(0).WriteU64(base+i*4096, i)
	}
	state, _ := fork.Save()
	f.Add(state)
	f.Add(state[:len(state)-4])
	f.Add(state[:len(state)/2])
	f.Add([]byte{})
	f.Add([]byte("PSRS"))
	// Bodies the encoder never writes, which the fuzz target checksums:
	// a non-minimal varint, a zero and an overflowing address delta.
	for _, c := range nonCanonicalStates() {
		f.Add(c.body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, binary.LittleEndian.AppendUint32(append([]byte(nil), data...), crc32.Checksum(data, castagnoli))} {
			st, err := decodeState(in)
			if err != nil {
				continue
			}
			if out := st.encode(); !bytes.Equal(out, in) {
				t.Fatalf("decoded state re-encodes to different bytes:\n in %x\nout %x", in, out)
			}
		}
	})
}

// stateBody encodes a recorder-state body, without its checksum, with
// the default settings and the given line records, each its address
// delta (raw varint bytes) followed by eight one-byte varint fields and
// the written flag, and no buckets.
func stateBody(deltas ...[]byte) []byte {
	var w snap.Writer
	w.Section(stateTag)
	w.U64(stateVersion)
	for _, v := range []uint64{64, 64 << 10, 1 << 20, core.NearRewrite, core.NearReread} {
		w.U64(v)
	}
	w.U64(uint64(len(deltas)))
	for _, d := range deltas {
		w.Raw(d)
		w.Raw([]byte{1, 0, 0, 0, 0, 0, 0, 5, 1})
	}
	w.U64(0)
	return w.Finish()
}

// nonCanonicalStates returns recorder-state bodies that decode to a
// state whose encoding differs from them, or to one with duplicate or
// wrapped addresses, and the error each must fail with.
func nonCanonicalStates() []struct {
	name string
	body []byte
	want string
} {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	return []struct {
		name string
		body []byte
		want string
	}{
		{"canonical", stateBody(uv(1<<40), uv(64)), ""},
		{"non-minimal varint", stateBody(uv(1<<40), []byte{0xc0, 0x00}), "non-minimal varint"},
		{"zero address delta", stateBody(uv(1<<40), uv(0)), "not canonical"},
		{"overflowing address delta", stateBody(uv(1<<40), uv(^uint64(0)-(1<<40)+64)), "not canonical"},
	}
}

// TestDecodeStateRejectsNonCanonical checks each rejection behind the
// checksum on a body that differs from a canonical one in one record.
func TestDecodeStateRejectsNonCanonical(t *testing.T) {
	for _, c := range nonCanonicalStates() {
		in := binary.LittleEndian.AppendUint32(bytes.Clone(c.body), crc32.Checksum(c.body, castagnoli))
		st, err := decodeState(in)
		if c.want == "" {
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if !bytes.Equal(st.encode(), in) {
				t.Fatalf("%s: re-encodes to other bytes", c.name)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: decode error %v; want %q", c.name, err, c.want)
		}
	}
}

// TestRecorderStateBytes pins the length of the kv-tune-shaped stored
// recorder state (kvState): 49,728 lines in 296 buckets. The encoding
// is deterministic, so a change to it moves this figure and must move
// the pin with it. Fixed 73-byte line records took 3,639,688 bytes.
func TestRecorderStateBytes(t *testing.T) {
	const want = 686_964
	if got := len(kvState(t)); got != want {
		t.Errorf("kv-tune-shaped recorder state is %d bytes; want %d", got, want)
	}
}

// TestForksOfOneStateShareNothing restores one stored state into two
// recorders at once, runs phase 2 on one of them only, and checks that
// neither the other fork nor the store's decoded state saw its writes.
func TestForksOfOneStateShareNothing(t *testing.T) {
	cfg := Config{LineReport: true, BucketBytes: 4096}
	state, ck, cold := savedState(t, cfg)
	store := storeOf(t, state)

	recs := make([]*Recorder, 2)
	forks := make([]*Fork, 2)
	machines := make([]*sim.Machine, 2)
	errs := make([]error, 2)
	done := make(chan int)
	for i := range recs {
		recs[i] = New(cfg)
		machines[i] = sim.MachineA()
		forks[i] = recs[i].AttachFork(machines[i])
		go func() {
			if errs[i] = forks[i].Restore(store.View(), stateKey); errs[i] == nil {
				errs[i] = ck.Restore(machines[i])
			}
			done <- i
		}()
	}
	for range recs {
		<-done
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fork %d: %v", i, err)
		}
	}
	if store.Bytes() <= int64(len(state)) {
		t.Fatal("the store did not keep the restored state's decoded form")
	}

	phase2(machines[0])
	if got := reportJSON(t, recs[0].LineReport(0)); !bytes.Equal(got, cold) {
		t.Errorf("the mutated fork's report differs from the cold run's")
	}
	if got, ok := forks[1].Save(); !ok || !bytes.Equal(got, state) {
		t.Error("mutating one fork changed the other")
	}
	tpl, err := checkpoint.Decoded(store.View(), stateKey, decodeEntry)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tpl.encode(), state) {
		t.Error("mutating a fork changed the decoded state it was copied from")
	}
}

// TestCorruptStateNeverCached checks that damaged bytes fail to restore
// every time and that the store never keeps a decoded form for them.
func TestCorruptStateNeverCached(t *testing.T) {
	cfg := Config{LineReport: true}
	state, _, _ := savedState(t, cfg)
	bad := bytes.Clone(state)
	bad[len(bad)/2] ^= 0x01
	store := storeOf(t, bad)
	for i := 0; i < 2; i++ {
		if err := New(cfg).AttachFork(sim.MachineA()).Restore(store.View(), stateKey); err == nil {
			t.Fatalf("restore %d accepted a corrupt state", i)
		}
		if store.Bytes() != int64(len(bad)) {
			t.Fatalf("restore %d kept a decoded form of a corrupt state: store holds %d bytes, entry %d",
				i, store.Bytes(), len(bad))
		}
	}
}

// TestDecodedStateFreedWithEntry restores a state, evicts its store
// entry, and checks that the decoded state the store kept for it
// becomes unreachable: nothing outside the store holds warm state the
// store has let go.
func TestDecodedStateFreedWithEntry(t *testing.T) {
	cfg := Config{LineReport: true}
	state, _, _ := savedState(t, cfg)
	store, err := checkpoint.NewStore(int64(4*len(state)), "")
	if err != nil {
		t.Fatal(err)
	}
	store.Put(stateKey, state)
	f := New(cfg).AttachFork(sim.MachineA())
	if err := f.Restore(store.View(), stateKey); err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	func() {
		st, err := checkpoint.Decoded(store.View(), stateKey, decodeEntry)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(st, func(*forkState) { close(freed) })
	}()
	store.Put("other", make([]byte, 4*len(state))) // evicts stateKey
	if _, ok := store.Get(stateKey); ok {
		t.Fatal("the state's entry was not evicted")
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the decoded state is still reachable after its entry was evicted")
		}
	}
}

// kvState is a stored recorder state the size of a KV baseline's: a
// 10k-record CLHT YCSB run on machine A tracks about 49.8k lines in
// 296 buckets of 64 KiB.
func kvState(tb testing.TB) []byte {
	tb.Helper()
	rec := New(Config{LineReport: true})
	f := rec.AttachFork(sim.MachineA())
	rng := xrand.New(7)
	for bk := uint64(0); bk < 296; bk++ {
		for l := uint64(0); l < 168; l++ {
			li := f.ms.lines.add(base + bk<<16 + l*64)
			li.writes = 1 + uint64(rng.Intn(8))
			li.Rewrites, li.NearRewrites = li.writes-1, uint64(rng.Intn(int(li.writes)))
			li.Rereads, li.LastWrite, li.Written = uint64(rng.Intn(4)), uint64(rng.Intn(1<<30)), true
		}
		b := f.ms.buckets.add(base + bk<<16)
		b.appWriteBytes, b.deviceWriteBytes = 168*64, uint64(rng.Intn(1<<16))
	}
	rec.nlines = f.ms.lines.len()
	state, ok := f.Save()
	if !ok {
		tb.Fatal("Save refused the state")
	}
	return state
}

// BenchmarkRecorderFork restores a KV-sized recorder state into a
// recorder from a checkpoint store: cold decodes the stored bytes, as
// the first restore of an entry (or of a disk-tier read) does; template
// copies the tables the store kept from an earlier restore.
func BenchmarkRecorderFork(b *testing.B) {
	state := kvState(b)
	for _, c := range []struct {
		name string
		cold bool
	}{{"cold", true}, {"template", false}} {
		b.Run(c.name, func(b *testing.B) {
			store := storeOf(b, state)
			view := store.View()
			f := New(Config{LineReport: true}).AttachFork(sim.MachineA())
			if err := f.Restore(view, stateKey); err != nil { // decodes the entry
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.cold {
					b.StopTimer()
					store.Put(stateKey, state) // a new entry: nothing decoded
					b.StartTimer()
				}
				if err := f.Restore(view, stateKey); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
