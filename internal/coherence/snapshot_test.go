package coherence

import (
	"bytes"
	"testing"

	"prestores/internal/snap"
)

// TestRestoreRejectsUnknownCores restores one directory line whose
// sharer set or exclusive owner names a core at or beyond the
// machine's count: the next write to the line would invalidate a core
// that does not exist, so the restore must fail instead.
func TestRestoreRejectsUnknownCores(t *testing.T) {
	const cores = 4
	encode := func(sharers uint64, owner int8) []byte {
		w := snap.NewWriter()
		w.Section("CDIR")
		w.U64(1)
		w.U64(0x1000)
		w.U64(sharers)
		w.U8(uint8(owner))
		for i := 0; i < 5; i++ {
			w.U64(0)
		}
		return w.Finish()
	}
	restore := func(data []byte) error {
		d, _ := testDir(false)
		return d.RestoreState(snap.NewReader(data), cores)
	}
	good := encode(1<<3, 3)
	d, _ := testDir(false)
	if err := d.RestoreState(snap.NewReader(good), cores); err != nil {
		t.Fatalf("valid line: %v", err)
	}
	w := snap.NewWriter()
	d.SnapshotState(w)
	if !bytes.Equal(w.Finish(), good) {
		t.Fatal("re-snapshot differs from its source")
	}
	for name, data := range map[string][]byte{
		"sharer at the core count": encode(1<<cores, -1),
		"sharer at bit 40":         encode(1<<40|1, 0),
		"owner at the core count":  encode(1, cores),
		"owner below -1":           encode(1, -2),
	} {
		if restore(data) == nil {
			t.Errorf("%s: restore succeeded", name)
		}
	}
}

// TestRestoreSizesTableOnce restores a directory of many lines: the
// flat table is sized from the decoded count, so the restore allocates
// it once instead of growing it through every doubling.
func TestRestoreSizesTableOnce(t *testing.T) {
	const n = 5000
	src, _ := testDir(false)
	for i := uint64(0); i < n; i++ {
		src.Read(0, int(i%4), i*64)
	}
	w := snap.NewWriter()
	src.SnapshotState(w)
	data := w.Finish()
	dst, _ := testDir(false)
	allocs := testing.AllocsPerRun(5, func() {
		if err := dst.RestoreState(snap.NewReader(data), 4); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 { // the reader, the key array and the value array
		t.Fatalf("restore of %d lines allocates %v times", n, allocs)
	}
	if dst.TrackedLines() != n {
		t.Fatalf("restored %d lines; want %d", dst.TrackedLines(), n)
	}
}
