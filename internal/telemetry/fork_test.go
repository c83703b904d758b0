package telemetry

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"sort"
	"testing"

	"prestores/internal/sim"
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
		ms := &machineState{idx: uint16(mi), name: "m", lineSize: 64,
			lines: map[uint64]*lineRec{}, buckets: map[uint64]*bucketRec{}}
		r.machines = append(r.machines, ms)
		for i := 0; i < 400; i++ {
			// Few distinct write counts and a small address range: most
			// lines tie on Writes, and addresses repeat across machines.
			addr := uint64(rng.Intn(600)) * 64
			if _, ok := ms.lines[addr]; ok {
				continue
			}
			li := &lineRec{writes: uint64(rng.Intn(4))}
			li.Rewrites, li.Written = uint64(i), true
			ms.lines[addr] = li
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

func TestForkRestoreMatchesColdRun(t *testing.T) {
	cfg := Config{LineReport: true, BucketBytes: 4096}
	state, ck, cold := savedState(t, cfg)

	// A recorder that already holds another machine's lines: the forked
	// machine is its second.
	rec := New(cfg)
	other := sim.MachineA()
	rec.Attach(other)
	phase1(other)
	m := sim.MachineA()
	f := rec.AttachFork(m)
	m.Core(0).WriteU64(base+1<<20, 1) // events before the boundary are replaced
	if err := f.Restore(state); err != nil {
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
	if err := solo.AttachFork(sm).Restore(state); err != nil {
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
		if err := f.Restore(data); err == nil {
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
