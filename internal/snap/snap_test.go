package snap

import (
	"bytes"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter()
	w.Section("TEST")
	w.U8(7)
	w.Bool(true)
	w.Bool(false)
	w.U64(1 << 40)
	w.I64(-5)
	w.Bytes([]byte("abc"))
	w.String("xyz")
	w.Raw([]byte{9, 8})

	r := NewReader(w.Finish())
	r.Section("TEST")
	if r.U8() != 7 || !r.Bool() || r.Bool() || r.U64() != 1<<40 || r.I64() != -5 {
		t.Fatal("scalar round trip")
	}
	if string(r.Bytes()) != "abc" || r.String() != "xyz" {
		t.Fatal("length-prefixed round trip")
	}
	raw := make([]byte, 2)
	r.Raw(raw)
	if !bytes.Equal(raw, []byte{9, 8}) {
		t.Fatalf("Raw = %v", raw)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderLatchesTruncation reads past the end: the first failure is
// kept, every later read returns the zero value, and Done reports the
// original error rather than the trailing-bytes check.
func TestReaderLatchesTruncation(t *testing.T) {
	w := NewWriter()
	w.U64(42)
	w.U8(1)
	r := NewReader(w.Finish())
	if r.U64() != 42 {
		t.Fatal("first read")
	}
	if r.U64() != 0 {
		t.Fatal("truncated U64 not zero")
	}
	err := r.Err()
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("Err = %v; want a truncation error", err)
	}
	// The remaining byte is no longer readable: the error latched.
	if r.U8() != 0 || r.Bool() || r.View(1) != nil || r.Bytes() != nil || r.String() != "" {
		t.Fatal("read after a latched error returned data")
	}
	if r.Err() != err || r.Done() != err {
		t.Fatalf("latched error changed: %v, %v", r.Err(), r.Done())
	}
}

func TestReaderLengthPrefixBeyondBuffer(t *testing.T) {
	w := NewWriter()
	w.U64(1 << 62)
	w.Raw([]byte("short"))
	r := NewReader(w.Finish())
	if r.Bytes() != nil || r.Err() == nil {
		t.Fatal("oversized length prefix accepted")
	}
}

// TestReaderView checks that View aliases the buffer instead of copying
// and advances like any other read.
func TestReaderView(t *testing.T) {
	buf := []byte("headPAYLOADtail")
	r := NewReader(buf)
	r.Section("head")
	v := r.View(7)
	if string(v) != "PAYLOAD" {
		t.Fatalf("View = %q", v)
	}
	if &v[0] != &buf[4] {
		t.Fatal("View copied instead of aliasing the buffer")
	}
	if r.View(0) == nil || r.Err() != nil {
		t.Fatal("zero-length View failed")
	}
	if r.View(5) != nil || r.Err() == nil {
		t.Fatal("View past the end did not latch an error")
	}
}

func TestReaderSectionMismatch(t *testing.T) {
	r := NewReader([]byte("ABCDrest"))
	r.Section("WXYZ")
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "section mismatch") {
		t.Fatalf("Err = %v", r.Err())
	}
}

// TestReaderBoolCanonical rejects a bool byte the writer never emits.
func TestReaderBoolCanonical(t *testing.T) {
	r := NewReader([]byte{2})
	if r.Bool() || r.Err() == nil {
		t.Fatal("bool byte 2 accepted")
	}
}

func TestDoneTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.U8()
	if err := r.Done(); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("Done = %v", err)
	}
}

// FuzzReader drives a reader over arbitrary bytes with an arbitrary
// sequence of reads. It never panics, never reads past the buffer, and
// once an error latches it never changes and every read returns the
// zero value.
func FuzzReader(f *testing.F) {
	w := NewWriter()
	w.Section("MEMS")
	w.U64(3)
	w.Bool(true)
	w.String("key")
	f.Add(w.Finish(), []byte{6, 2, 1, 4, 5})
	f.Add([]byte{1, 2, 3}, []byte{2, 2})
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		r := NewReader(data)
		var latched error
		for _, op := range ops {
			zero := true
			switch op % 7 {
			case 0:
				zero = r.U8() == 0
			case 1:
				zero = !r.Bool()
			case 2:
				zero = r.U64() == 0
			case 3:
				zero = r.Bytes() == nil
			case 4:
				zero = r.String() == ""
			case 5:
				zero = r.View(int(op>>3)) == nil
			case 6:
				r.Section("MEMS")
			}
			if latched != nil {
				if r.Err() != latched {
					t.Fatalf("latched error changed from %v to %v", latched, r.Err())
				}
				if !zero {
					t.Fatal("read after a latched error returned data")
				}
			}
			latched = r.Err()
			if r.off > len(data) {
				t.Fatalf("offset %d past a %d-byte buffer", r.off, len(data))
			}
		}
	})
}
