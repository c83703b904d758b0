package sim

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"prestores/internal/memspace"
	"prestores/internal/units"
	"prestores/internal/xrand"
)

// snapStep drives one random operation against a random core, returning
// a small fingerprint of everything observable about the op: which core
// ran, its clock and instruction counter afterwards, and the data a
// read returned. Identical fingerprints step for step are the proof
// that a restored machine is indistinguishable from the original.
func snapStep(m *Machine, rng *xrand.PCG, buf []byte) [4]uint64 {
	const span = 1 << 21
	base := uint64(1) << 40
	ci := rng.Intn(3)
	c := m.Core(ci)
	off := rng.Uint64n(span - 512)
	n := rng.Uint64n(511) + 1
	var dataSum uint64
	switch rng.Intn(8) {
	case 0, 1, 2:
		for i := uint64(0); i < n; i++ {
			buf[i] = byte(rng.Uint32())
		}
		c.Write(base+off, buf[:n])
	case 3:
		for i := uint64(0); i < n; i++ {
			buf[i] = byte(rng.Uint32())
		}
		c.WriteNT(base+off, buf[:n])
	case 4, 5:
		c.Read(base+off, buf[:n])
		for i := uint64(0); i < n; i++ {
			dataSum = dataSum*1099511628211 + uint64(buf[i])
		}
	case 6:
		op := Clean
		if rng.Uint32()%2 == 0 {
			op = Demote
		}
		c.Prestore(base+off, n, op)
	case 7:
		switch rng.Intn(3) {
		case 0:
			c.Fence()
		case 1:
			a := base + (off &^ 7)
			cur := m.Backing().ReadU64(a)
			c.CAS(a, cur, cur+1)
		case 2:
			c.Compute(rng.Uint64n(100))
		}
	}
	return [4]uint64{uint64(ci), c.Now(), c.Instructions(), dataSum}
}

// TestSnapshotRestoreEquivalence is the restore-equivalence bar from
// the checkpoint design: run a machine mid-experiment, snapshot it,
// keep running and record every subsequent op; then restore the
// snapshot into a fresh machine and demand the identical op-for-op
// trace — same clocks, same instruction counts, same read data — and
// identical final state.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	for _, mk := range []struct {
		name string
		mk   func() *Machine
	}{
		{"machineA", MachineA},
		{"machineB", MachineBFast},
	} {
		mk := mk
		t.Run(mk.name, func(t *testing.T) {
			const prefix, suffix = 6000, 3000

			m1 := mk.mk()
			rng := xrand.New(0xdecaf)
			buf := make([]byte, 512)
			for i := 0; i < prefix; i++ {
				snapStep(m1, rng, buf)
			}
			snapData, err := m1.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			rngState, rngInc := rng.State()

			trace1 := make([][4]uint64, suffix)
			for i := 0; i < suffix; i++ {
				trace1[i] = snapStep(m1, rng, buf)
			}
			m1.Drain()

			m2 := mk.mk()
			if err := m2.RestoreSnapshot(snapData); err != nil {
				t.Fatalf("RestoreSnapshot: %v", err)
			}
			// A snapshot of the freshly restored machine must reproduce
			// the original bytes: restore is lossless and the encoding is
			// canonical.
			resnap, err := m2.Snapshot()
			if err != nil {
				t.Fatalf("re-Snapshot: %v", err)
			}
			if !bytes.Equal(resnap, snapData) {
				t.Fatalf("snapshot of restored machine differs from original (%d vs %d bytes)",
					len(resnap), len(snapData))
			}

			rng2 := xrand.New(1)
			rng2.SetState(rngState, rngInc)
			buf2 := make([]byte, 512)
			for i := 0; i < suffix; i++ {
				if got := snapStep(m2, rng2, buf2); got != trace1[i] {
					t.Fatalf("suffix op %d diverged: restored %v, original %v", i, got, trace1[i])
				}
			}
			m2.Drain()

			for ci := 0; ci < m1.Cores(); ci++ {
				c1, c2 := m1.Core(ci), m2.Core(ci)
				if c1.Now() != c2.Now() {
					t.Errorf("core %d clock: original %d, restored %d", ci, c1.Now(), c2.Now())
				}
				if c1.Stats() != c2.Stats() {
					t.Errorf("core %d stats diverged:\n%+v\n%+v", ci, c1.Stats(), c2.Stats())
				}
				if c1.L1().Stats() != c2.L1().Stats() {
					t.Errorf("core %d L1 stats diverged", ci)
				}
			}
			if m1.LLC().Stats() != m2.LLC().Stats() {
				t.Errorf("LLC stats diverged")
			}
			if m1.Directory().Stats() != m2.Directory().Stats() {
				t.Errorf("directory stats diverged")
			}
			for _, w := range m1.Config().Windows {
				d2 := m2.Device(w.Name)
				if w.Device.Stats() != d2.Stats() {
					t.Errorf("device %q stats diverged:\n%+v\n%+v", w.Name, w.Device.Stats(), d2.Stats())
				}
			}
			final1 := make([]byte, 1<<21)
			final2 := make([]byte, 1<<21)
			m1.Backing().Read(1<<40, final1)
			m2.Backing().Read(1<<40, final2)
			if !bytes.Equal(final1, final2) {
				t.Errorf("backing memory diverged after suffix")
			}
		})
	}
}

// TestSnapshotConfigMismatch demands that restoring onto a machine with
// a different configuration fails loudly, before any state is applied.
func TestSnapshotConfigMismatch(t *testing.T) {
	m := MachineA()
	data, err := m.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	other := MachineBFast()
	err = other.RestoreSnapshot(data)
	if err == nil {
		t.Fatal("restore onto mismatched config succeeded, want error")
	}
	if !strings.Contains(err.Error(), "config hash") {
		t.Fatalf("error %q does not mention the config hash", err)
	}
}

// TestSnapshotCorruptPayload checks the decoder fails loudly on
// garbage, truncation and version skew instead of misreading state.
func TestSnapshotCorruptPayload(t *testing.T) {
	m := MachineA()
	data, err := m.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := MachineA().RestoreSnapshot(data[:len(data)/2]); err == nil {
		t.Error("truncated snapshot restored without error")
	}
	if err := MachineA().RestoreSnapshot([]byte("XXXXgarbage")); err == nil {
		t.Error("garbage restored without error")
	}
	bad := append([]byte(nil), data...)
	bad[5] = 99 // version field (little-endian u64 after 4-byte magic)
	if err := MachineA().RestoreSnapshot(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("version skew error = %v, want version mismatch", err)
	}
}

// TestCheckpointCodec round-trips the envelope and rejects corrupt ones.
func TestCheckpointCodec(t *testing.T) {
	m := MachineA()
	m.Core(0).Write(1<<40, []byte("hello"))
	ck, err := m.NewCheckpoint("build-123", []byte("annex-bytes"))
	if err != nil {
		t.Fatalf("NewCheckpoint: %v", err)
	}
	enc := ck.Encode()
	dec, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatalf("DecodeCheckpoint: %v", err)
	}
	if dec.Build != "build-123" || string(dec.Annex) != "annex-bytes" {
		t.Fatalf("round trip lost fields: %+v", dec)
	}
	if dec.ConfigHash != m.ConfigHash() {
		t.Fatalf("config hash %q, want %q", dec.ConfigHash, m.ConfigHash())
	}
	m2 := MachineA()
	if err := dec.Restore(m2); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	got := make([]byte, 5)
	m2.Backing().Read(1<<40, got)
	if string(got) != "hello" {
		t.Fatalf("restored memory %q, want %q", got, "hello")
	}

	if _, err := DecodeCheckpoint(enc[:10]); err == nil {
		t.Error("truncated checkpoint decoded without error")
	}
	if _, err := DecodeCheckpoint([]byte("NOPE....")); err == nil {
		t.Error("bad magic decoded without error")
	}
	if _, err := DecodeCheckpoint(append(enc, 0)); err == nil {
		t.Error("trailing bytes decoded without error")
	}
}

// TestCheckpointCheck: Check accepts a checkpoint for the machine it
// was taken on and rejects another snapshot version or machine config,
// reading only the payload header.
func TestCheckpointCheck(t *testing.T) {
	m := MachineA()
	m.Core(0).Write(1<<40, []byte("hello"))
	ck, err := m.NewCheckpoint("build", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Check(MachineA()); err != nil {
		t.Fatalf("Check on a like machine: %v", err)
	}
	if err := ck.Check(MachineBFast()); err == nil || !strings.Contains(err.Error(), "config hash") {
		t.Errorf("Check on another machine = %v, want a config hash mismatch", err)
	}
	old := *ck
	old.Machine = bytes.Clone(ck.Machine)
	binary.LittleEndian.PutUint64(old.Machine[4:], snapshotVersion-1)
	if err := old.Check(MachineA()); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("Check of the previous snapshot version = %v, want a version mismatch", err)
	}
}

// TestSnapshotDeterministicEncoding: two machines driven through the
// same history serialize to identical bytes, which is what lets the
// checkpoint store share snapshots across grid points by key alone.
func TestSnapshotDeterministicEncoding(t *testing.T) {
	run := func() []byte {
		m := MachineA()
		rng := xrand.New(0xabcd)
		buf := make([]byte, 512)
		for i := 0; i < 4000; i++ {
			snapStep(m, rng, buf)
		}
		data, err := m.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		return data
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatal("identical histories produced different snapshots")
	}
}

// TestOpsCounter: machines attached to different counters report
// disjoint totals — the per-run accounting the bench harness relies on
// under -parallel.
func TestOpsCounter(t *testing.T) {
	var a, b OpsCounter
	ma := MachineA()
	ma.SetOpsSink(&a)
	mb := MachineA()
	mb.SetOpsSink(&b)
	ma.Core(0).Write(1<<40, make([]byte, 4096))
	mb.Core(0).Write(1<<40, make([]byte, 64))
	ma.Drain()
	mb.Drain()
	if a.Total() == 0 || b.Total() == 0 {
		t.Fatalf("counters empty: a=%d b=%d", a.Total(), b.Total())
	}
	if a.Total() == b.Total() {
		t.Fatalf("distinct workloads reported equal totals %d", a.Total())
	}
	sum := func(m *Machine) (n uint64) {
		for i := 0; i < m.Cores(); i++ {
			n += m.Core(i).Instructions()
		}
		return n
	}
	if wantA, wantB := sum(ma), sum(mb); a.Total() != wantA || b.Total() != wantB {
		t.Fatalf("counter totals a=%d b=%d, want %d and %d", a.Total(), b.Total(), wantA, wantB)
	}
}

// TestRestoredOpsAccounting: restoring a snapshot must not re-credit
// the producing run's instructions to this process's counters.
func TestRestoredOpsAccounting(t *testing.T) {
	m1 := MachineA()
	m1.Core(0).Write(1<<40, make([]byte, 4096))
	m1.Drain()
	data, err := m1.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	sum := func(m *Machine) (n uint64) {
		for i := 0; i < m.Cores(); i++ {
			n += m.Core(i).Instructions()
		}
		return n
	}

	var ops OpsCounter
	m2 := MachineA()
	m2.SetOpsSink(&ops)
	if err := m2.RestoreSnapshot(data); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	// Only ops retired after the restore may be counted — the restored
	// warmup instructions (sum(m2) at this point) belong to the run that
	// produced the snapshot. Drain itself retires a fence per core.
	atRestore := sum(m2)
	m2.Core(0).Write(1<<40, make([]byte, 64))
	m2.Drain()
	if got, want := ops.Total(), sum(m2)-atRestore; got != want {
		t.Fatalf("run counter credited %d ops, want %d (post-restore only)", got, want)
	}
	if ops.Total() >= sum(m2) {
		t.Fatal("run counter includes the restored warmup instructions")
	}
}

// FuzzRestoreSnapshot feeds arbitrary bytes to a fresh Machine A. The
// restore must never panic, and a restore that succeeds must have
// accepted the canonical encoding: re-snapshotting reproduces the input
// byte for byte (so, for example, MEMS pages listed out of order are
// rejected rather than silently reordered).
func FuzzRestoreSnapshot(f *testing.F) {
	fresh, err := MachineA().Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fresh)
	const pmem = uint64(1) << 40 // machine A's PMEM window, 1 GiB aligned
	m := MachineA()
	// snapStep's writes fill a 2 MiB table leaf, one write lands in the
	// next leaf and one in the next 1 GiB extent.
	rng := xrand.New(7)
	buf := make([]byte, 512)
	for i := 0; i < 300; i++ {
		snapStep(m, rng, buf)
	}
	m.Core(0).Write(pmem+(2<<20)+100, []byte("second leaf"))
	m.Core(1).Write(pmem+(1<<30)+100, []byte("second extent"))
	driven, err := m.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(driven)
	// One write straddles an extent boundary: the last page of one
	// extent and the first of the next.
	m = MachineA()
	m.Core(0).Write(pmem+(1<<30)-4, []byte("boundary"))
	edge, err := m.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(edge)
	// The same two pages listed in descending order, which no snapshot
	// writes: the restore must reject it.
	swapped := bytes.Clone(edge)
	i := bytes.Index(swapped, []byte("MEMS")) + 4
	if n := binary.LittleEndian.Uint64(swapped[i:]); n != 2 {
		f.Fatalf("boundary snapshot holds %d pages; want 2", n)
	}
	const pair = 8 + memspace.PageSize
	first := bytes.Clone(swapped[i+8 : i+8+pair])
	copy(swapped[i+8:], swapped[i+8+pair:i+8+2*pair])
	copy(swapped[i+8+pair:], first)
	if MachineA().RestoreSnapshot(swapped) == nil {
		f.Fatal("a snapshot with pages out of order restored")
	}
	f.Add(swapped)
	// Two states that decode but cannot run, each of which a load or
	// store on pmem's first line would trip over: core 0's L1 set 0
	// predicting way 200 of 8, and a directory line shared by core 40
	// of machine A's 10.
	m = MachineA()
	m.Core(0).Write(pmem, []byte("owned"))
	owned, err := m.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	mru := bytes.Clone(owned)
	i = bytes.Index(mru, []byte("CACH")) + 4 + 12*8 // past geometry, clock, rng, stats
	mru[i+16] = 200                                 // set 0's nvalid, plru, then mru
	if MachineA().RestoreSnapshot(mru) == nil {
		f.Fatal("a snapshot whose way predictor names way 200 restored")
	}
	f.Add(mru)
	sharer := bytes.Clone(owned)
	i = bytes.Index(sharer, []byte("CDIR")) + 4
	if n := binary.LittleEndian.Uint64(sharer[i:]); n != 1 {
		f.Fatalf("owned snapshot tracks %d directory lines; want 1", n)
	}
	sharer[i+16+5] |= 1 // sharers bit 40: byte 5, bit 0
	if MachineA().RestoreSnapshot(sharer) == nil {
		f.Fatal("a snapshot naming core 40 as a sharer restored")
	}
	f.Add(sharer)
	f.Add([]byte("PSSN"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := MachineA()
		if m.RestoreSnapshot(data) != nil {
			return
		}
		out, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("restored %d bytes but re-snapshot is %d bytes and differs", len(data), len(out))
		}
		// An accepted state must also run.
		buf := make([]byte, 8)
		for c := 0; c < m.Cores(); c++ {
			m.Core(c).Read(pmem, buf)
			m.Core(c).Write(pmem, buf)
		}
	})
}

// BenchmarkCheckpointRestore times the warm fork of a checkpoint whose
// machine wrote 4,096 pages of one allocation.
//
// restore decodes the checkpoint and restores it onto a fresh machine
// whose workload made the same allocation; building that machine is
// untimed. fork times everything a forked ycsb eval pays before its
// measured phase, with the allocation sized like its 4 GiB value heap:
// MachineA, Alloc, decode and restore.
func BenchmarkCheckpointRestore(b *testing.B) {
	const pages = 4096
	bench := func(b *testing.B, size, stride uint64, timeSetup bool) {
		src := MachineA()
		region := src.Alloc(WindowPMEM, "heap", size)
		for i := uint64(0); i < pages; i++ {
			src.Backing().WriteU64(region.Base+stride*i*memspace.PageSize, i+1)
		}
		ck, err := src.NewCheckpoint("bench", nil)
		if err != nil {
			b.Fatal(err)
		}
		data := ck.Encode()
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !timeSetup {
				b.StopTimer()
			}
			m := MachineA()
			m.Alloc(WindowPMEM, "heap", size)
			if !timeSetup {
				b.StartTimer()
			}
			dec, err := DecodeCheckpoint(data)
			if err != nil {
				b.Fatal(err)
			}
			if err := dec.Restore(m); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("restore", func(b *testing.B) { bench(b, 2*pages*memspace.PageSize, 2, false) })
	b.Run("fork", func(b *testing.B) { bench(b, 4*units.GiB, 1, true) })
}
