// Package snap implements the little-endian binary codec
// used by the simulator's checkpoint/restore machinery.
//
// The format is deliberately trivial: values are written at a fixed
// width, multi-byte values are little-endian, and variable-length data
// is length-prefixed with a uint64. Determinism is the point — the same
// machine state must always serialize to the same bytes, because
// warm-forked sweeps are proven byte-identical to cold sweeps, and any
// encoder cleverness (map iteration order, varint width choices) is a
// place for that guarantee to leak. The one variable-width value,
// Uvarint, is written at its minimal width, and the reader rejects any
// other width, so a value still has exactly one encoding.
//
// Readers latch their first error: after a failure every subsequent
// read returns the zero value, so decode paths can be written straight-
// line and check Err (or Done) once at the end.
package snap

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Writer serializes values into a growing buffer. The zero value is
// ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{} }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a byte 0 or 1.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I64 appends a little-endian two's-complement int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Uvarint appends v as a minimal unsigned LEB128 varint (1 to 10
// bytes, see encoding/binary).
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// U64s appends each of vs as U64 would, with no length prefix; the
// reader must know the count.
func (w *Writer) U64s(vs []uint64) {
	w.buf = slices.Grow(w.buf, 8*len(vs))
	for _, v := range vs {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	}
}

// Raw appends b with no length prefix; the reader must know the size.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Bytes appends a uint64 length prefix followed by b.
func (w *Writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends s length-prefixed.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Section appends a four-byte tag marking the start of a state section,
// so a reader that drifts out of sync fails at the next boundary
// instead of silently misinterpreting bytes. It panics on a tag whose
// length is not exactly four — that is an encoder bug, not input data.
func (w *Writer) Section(tag string) {
	if len(tag) != 4 {
		panic(fmt.Sprintf("snap: section tag %q must be 4 bytes", tag))
	}
	w.buf = append(w.buf, tag...)
}

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Finish returns the accumulated buffer. The writer must not be used
// afterwards.
func (w *Writer) Finish() []byte { return w.buf }

// Reader decodes a buffer produced by Writer. The first failure latches:
// every later read returns the zero value and Err keeps reporting it.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader over b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snap: "+format+" at offset %d", append(args, r.off)...)
	}
}

// take returns the next n bytes, or nil after latching a truncation
// error.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf)-r.off < n {
		r.fail("truncated: need %d bytes, have %d", n, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a byte written by Writer.Bool. Any byte other than 0 or 1
// latches an error: accepting it would decode a payload the encoder
// never writes, and re-encoding would not reproduce it.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.off--
		r.fail("bad bool byte %d", v)
		return false
	}
	return v == 1
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian two's-complement int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Uvarint reads a varint written by Writer.Uvarint. A truncated varint,
// one that overflows 64 bits, or one longer than its value needs (its
// last byte is zero, as in 0x80 0x00 for 0) latches an error: Writer
// never writes those, so accepting one would decode bytes that do not
// re-encode to themselves.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	switch {
	case n == 0:
		r.fail("truncated varint")
	case n < 0:
		r.fail("varint overflows 64 bits")
	case n > 1 && r.buf[r.off+n-1] == 0:
		r.fail("non-minimal varint")
	default:
		r.off += n
		return v
	}
	return 0
}

// U64s reads len(dst) values written by Writer.U64s into dst. On a
// truncation dst is left unchanged.
func (r *Reader) U64s(dst []uint64) {
	b := r.take(8 * len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
}

// Count reads a uint64 element count and checks it against the bytes
// left: n elements of at least size bytes each must fit, or Count
// latches an error and returns 0. A decoder may then size a table from
// the count without trusting it.
func (r *Reader) Count(size int) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.buf)-r.off)/uint64(size) {
		r.fail("bad count %d (only %d bytes left)", n, len(r.buf)-r.off)
		return 0
	}
	return int(n)
}

// Raw reads exactly len(dst) bytes into dst.
func (r *Reader) Raw(dst []byte) {
	b := r.take(len(dst))
	if b != nil {
		copy(dst, b)
	}
}

// View returns the next n bytes without copying them, or nil after
// latching a truncation error. The slice aliases the reader's buffer:
// it is valid only as long as that buffer is, and callers must not
// write through it.
func (r *Reader) View(n int) []byte { return r.take(n) }

// Bytes reads a length-prefixed byte slice. The returned slice aliases
// the reader's buffer; callers that retain it must copy.
func (r *Reader) Bytes() []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail("bad length prefix %d (only %d bytes left)", n, len(r.buf)-r.off)
		return nil
	}
	return r.take(int(n))
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Section consumes a four-byte tag and latches an error if it does not
// match the expected one.
func (r *Reader) Section(tag string) {
	if len(tag) != 4 {
		panic(fmt.Sprintf("snap: section tag %q must be 4 bytes", tag))
	}
	b := r.take(4)
	if b == nil {
		return
	}
	if string(b) != tag {
		r.off -= 4
		r.fail("section mismatch: want %q, got %q", tag, string(b))
	}
}

// Err returns the latched error, if any.
func (r *Reader) Err() error { return r.err }

// Done returns the latched error, or an error if undecoded bytes
// remain — a decoder that leaves a tail has drifted out of sync with
// the encoder even if nothing failed outright.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("snap: %d trailing bytes after decode", len(r.buf)-r.off)
	}
	return nil
}
