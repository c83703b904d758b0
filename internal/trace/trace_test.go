package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prestores/internal/sim"
)

// v1Fixture returns a legacy v1 (PSTR) recording from testdata. The v1
// format is read-only, so these files were written once by the v1
// encoder and are checked in:
//
//	some.v1.pstr      recordSome's operations
//	one.v1.pstr       {Core 1, Addr 64, Size 8, Fn "f", Instr 3, Cost 5}
//	fg.v1.pstr        one.v1.pstr plus {Core 2, Addr 128, Size 8, Fn "g", Instr 4, Cost 6}
//	dupnames.v1.pstr  table ["f" "f" "g"], one record of function id 2
func v1Fixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func recordSome(t *testing.T) *Buffer {
	t.Helper()
	b := NewBuffer()
	m := sim.MachineA()
	m.SetHook(b.Hook())
	c := m.Core(0)
	c.PushFunc("alpha")
	c.Write(1<<40, []byte{1, 2, 3})
	var buf [3]byte
	c.Read(1<<40, buf[:])
	c.PopFunc()
	c.PushFunc("beta")
	c.Fence()
	c.PopFunc()
	m.SetHook(nil)
	return b
}

func TestRecording(t *testing.T) {
	b := recordSome(t)
	if b.Len() == 0 {
		t.Fatal("nothing recorded")
	}
	var kinds []sim.OpKind
	var fns []string
	b.Replay(func(r Record, fn string) {
		kinds = append(kinds, r.Kind)
		fns = append(fns, fn)
	})
	// Expect func-enter, store, load, func-exit, func-enter, fence, func-exit.
	wantKinds := []sim.OpKind{
		sim.OpFuncEnter, sim.OpStore, sim.OpLoad, sim.OpFuncExit,
		sim.OpFuncEnter, sim.OpFence, sim.OpFuncExit,
	}
	if len(kinds) != len(wantKinds) {
		t.Fatalf("recorded %v", kinds)
	}
	for i := range wantKinds {
		if kinds[i] != wantKinds[i] {
			t.Fatalf("record %d = %v, want %v", i, kinds[i], wantKinds[i])
		}
	}
	if fns[1] != "alpha" || fns[5] != "beta" {
		t.Fatalf("function attribution: %v", fns)
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	b := recordSome(t)
	got, err := Decode(bytes.NewReader(v1Fixture(t, "some.v1.pstr")))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != b.Len() {
		t.Fatalf("decoded %d records, want %d", got.Len(), b.Len())
	}
	var orig, decoded []Record
	var origFns, decodedFns []string
	b.Replay(func(r Record, fn string) { orig = append(orig, r); origFns = append(origFns, fn) })
	got.Replay(func(r Record, fn string) { decoded = append(decoded, r); decodedFns = append(decodedFns, fn) })
	for i := range orig {
		if orig[i] != decoded[i] || origFns[i] != decodedFns[i] {
			t.Fatalf("record %d mismatch: %+v (%q) vs %+v (%q)",
				i, orig[i], origFns[i], decoded[i], decodedFns[i])
		}
	}
}

func TestDecodeBadMagic(t *testing.T) {
	if _, err := Decode(strings.NewReader("not a trace at all")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestDecodeTruncated(t *testing.T) {
	raw := v1Fixture(t, "some.v1.pstr")
	trunc := raw[:len(raw)/2]
	if _, err := Decode(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestFuncNameUnknown(t *testing.T) {
	b := NewBuffer()
	if b.FuncName(42) != "?" {
		t.Fatal("unknown id did not map to ?")
	}
}
