package trace

import (
	"bytes"
	"io"
	"testing"

	"prestores/internal/sim"
)

// recordMany records count store/load/fence ops across two functions
// and two cores so chunked encodings exercise fn-table deltas and core
// masks.
func recordMany(t testing.TB, count int) *Buffer {
	t.Helper()
	b := NewBuffer()
	m := sim.MachineA()
	m.SetHook(b.Hook())
	c0, c1 := m.Core(0), m.Core(1)
	c0.PushFunc("writer")
	c1.PushFunc("reader")
	payload := make([]byte, 64)
	for i := 0; b.Len() < count; i++ {
		c0.Write(1<<40+uint64(i)*64, payload)
		c1.Read(1<<40+uint64(i)*64, payload)
		if i%17 == 0 {
			c0.Fence()
		}
	}
	c0.PopFunc()
	c1.PopFunc()
	m.SetHook(nil)
	return b
}

func flatten(t *testing.T, cr *ChunkReader) (recs []Record, fns []string, chunks int) {
	t.Helper()
	for {
		c, err := cr.Next()
		if err == io.EOF {
			return recs, fns, chunks
		}
		if err != nil {
			t.Fatalf("chunk %d: %v", chunks, err)
		}
		if c.Index != chunks {
			t.Fatalf("chunk index %d, want %d", c.Index, chunks)
		}
		for _, r := range c.Records {
			recs = append(recs, r)
			fns = append(fns, c.FuncName(r.Fn))
		}
		chunks++
	}
}

func compareReplay(t *testing.T, want *Buffer, recs []Record, fns []string) {
	t.Helper()
	var wrecs []Record
	var wfns []string
	want.Replay(func(r Record, fn string) { wrecs = append(wrecs, r); wfns = append(wfns, fn) })
	if len(wrecs) != len(recs) {
		t.Fatalf("got %d records, want %d", len(recs), len(wrecs))
	}
	for i := range wrecs {
		// Fn ids can be re-interned; compare everything else plus the name.
		a, b := wrecs[i], recs[i]
		a.Fn, b.Fn = 0, 0
		if a != b || wfns[i] != fns[i] {
			t.Fatalf("record %d mismatch: %+v (%q) vs %+v (%q)", i, wrecs[i], wfns[i], recs[i], fns[i])
		}
	}
}

func TestWriterChunkReaderRoundtrip(t *testing.T) {
	b := recordMany(t, 1000)
	var buf bytes.Buffer
	if err := b.EncodeChunked(&buf, 64); err != nil {
		t.Fatal(err)
	}
	cr, err := NewChunkReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if cr.ChunkRecords() != 64 {
		t.Fatalf("chunk target %d, want 64", cr.ChunkRecords())
	}
	recs, fns, chunks := flatten(t, cr)
	if want := (b.Len() + 63) / 64; chunks != want {
		t.Fatalf("read %d chunks, want %d", chunks, want)
	}
	compareReplay(t, b, recs, fns)
	// A drained reader keeps returning io.EOF.
	if _, err := cr.Next(); err != io.EOF {
		t.Fatalf("post-EOF Next: %v", err)
	}
}

func TestDecodeReadsChunked(t *testing.T) {
	b := recordMany(t, 500)
	var buf bytes.Buffer
	if err := b.EncodeChunked(&buf, 100); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	var fns []string
	got.Replay(func(r Record, fn string) { recs = append(recs, r); fns = append(fns, fn) })
	compareReplay(t, b, recs, fns)
}

func TestChunkReaderReadsV1(t *testing.T) {
	b := recordSome(t)
	cr, err := NewChunkReader(bytes.NewReader(v1Fixture(t, "some.v1.pstr")))
	if err != nil {
		t.Fatal(err)
	}
	recs, fns, chunks := flatten(t, cr)
	if chunks != 1 {
		t.Fatalf("small v1 trace synthesized %d chunks, want 1", chunks)
	}
	compareReplay(t, b, recs, fns)
}

func TestWriterBoundedBuffer(t *testing.T) {
	w := NewWriter(io.Discard, WriterOptions{ChunkRecords: 32})
	for i := 0; i < 32*16; i++ {
		if err := w.Append(Record{Addr: uint64(i)}, "fn"); err != nil {
			t.Fatal(err)
		}
		// The in-memory record buffer never exceeds one chunk: chunks
		// are flushed as they fill, keeping recording RSS flat.
		if len(w.recs) > 32 || cap(w.recs) > 32 {
			t.Fatalf("buffered %d records (cap %d) with chunk target 32", len(w.recs), cap(w.recs))
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 32*16 || w.Chunks() != 16 {
		t.Fatalf("wrote %d records in %d chunks", w.Records(), w.Chunks())
	}
}

func TestWriterEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cr, err := NewChunkReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cr.Next(); err != io.EOF {
		t.Fatalf("empty trace Next: %v", err)
	}
	if tb, err := Decode(bytes.NewReader(buf.Bytes())); err != nil || tb.Len() != 0 {
		t.Fatalf("Decode empty v2: %v, %d records", err, tb.Len())
	}
}

func TestWriterFlushWithoutClose(t *testing.T) {
	// A writer that never reached Close (crashed recorder) leaves a
	// footer-less file whose flushed chunks are still readable.
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{ChunkRecords: 8})
	for i := 0; i < 20; i++ {
		if err := w.Append(Record{Addr: uint64(i)}, "fn"); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	cr, err := NewChunkReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, chunks := flatten(t, cr)
	if len(recs) != 20 || chunks != 3 {
		t.Fatalf("read %d records in %d chunks, want 20 in 3", len(recs), chunks)
	}
}

func TestStandaloneChunkRoundtrip(t *testing.T) {
	b := recordMany(t, 200)
	var buf bytes.Buffer
	if err := b.EncodeChunked(&buf, 64); err != nil {
		t.Fatal(err)
	}
	cr, err := NewChunkReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for {
		c, err := cr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		var one bytes.Buffer
		if err := EncodeChunk(&one, c); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeChunk(bytes.NewReader(one.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got.Index != c.Index || len(got.Records) != len(c.Records) ||
			len(got.Funcs) != len(c.Funcs) || got.CoreMask != c.CoreMask || got.MaxCore != c.MaxCore {
			t.Fatalf("standalone chunk mismatch: %+v vs %+v", got.Index, c.Index)
		}
		for i := range c.Records {
			if got.Records[i] != c.Records[i] {
				t.Fatalf("record %d mismatch", i)
			}
		}
	}
}

func TestReadIndex(t *testing.T) {
	b := recordMany(t, 400)
	var buf bytes.Buffer
	if err := b.EncodeChunked(&buf, 64); err != nil {
		t.Fatal(err)
	}
	idx, err := ReadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if idx.ChunkRecords != 64 {
		t.Fatalf("index chunk target %d", idx.ChunkRecords)
	}
	if idx.TotalRecords != uint64(b.Len()) {
		t.Fatalf("index claims %d records, want %d", idx.TotalRecords, b.Len())
	}
	var sum uint64
	var prev uint64
	for i, ci := range idx.Chunks {
		sum += uint64(ci.Records)
		if ci.Offset <= prev {
			t.Fatalf("chunk %d offset %d not past %d", i, ci.Offset, prev)
		}
		prev = ci.Offset
	}
	if sum != idx.TotalRecords {
		t.Fatalf("index chunk records sum to %d, want %d", sum, idx.TotalRecords)
	}
	// The v1 format has no footer.
	if _, err := ReadIndex(bytes.NewReader(v1Fixture(t, "some.v1.pstr"))); err == nil {
		t.Fatal("ReadIndex accepted a v1 trace")
	}
}

func TestDecodeRejectsCorruptFnID(t *testing.T) {
	// v1: patch the single record's fn id past the table.
	raw := v1Fixture(t, "one.v1.pstr")
	// Record starts after 12B header + (4+1)B name entry; fn id at +19.
	raw[12+5+19] = 0xff
	if _, err := Decode(bytes.NewReader(raw)); err == nil {
		t.Fatal("v1 decode accepted out-of-table fn id")
	}

	// v2: same corruption inside the chunk payload.
	b := NewBuffer()
	b.records = append(b.records, Record{Fn: b.intern("f"), Addr: 64})
	var v2 bytes.Buffer
	if err := b.EncodeChunked(&v2, 16); err != nil {
		t.Fatal(err)
	}
	raw = v2.Bytes()
	raw[fileHeaderSize+chunkHeaderSize+5+19] = 0xff
	if _, err := Decode(bytes.NewReader(raw)); err == nil {
		t.Fatal("v2 decode accepted out-of-table fn id")
	}
}

func TestDecodeRejectsOversizedFnTable(t *testing.T) {
	raw := v1Fixture(t, "some.v1.pstr")
	raw[4], raw[5], raw[6], raw[7] = 0xff, 0xff, 0xff, 0xff
	if _, err := Decode(bytes.NewReader(raw)); err == nil {
		t.Fatal("decode accepted an oversized function table")
	}
	if _, err := NewChunkReader(bytes.NewReader(raw)); err == nil {
		t.Fatal("chunk reader accepted an oversized function table")
	}
}

func TestChunkReaderTruncated(t *testing.T) {
	b := recordMany(t, 300)
	var buf bytes.Buffer
	if err := b.EncodeChunked(&buf, 50); err != nil {
		t.Fatal(err)
	}
	// Cut inside a chunk payload: the reader must error, not succeed.
	trunc := buf.Bytes()[:fileHeaderSize+chunkHeaderSize+10]
	cr, err := NewChunkReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cr.Next(); err == nil || err == io.EOF {
		t.Fatalf("truncated chunk read: %v", err)
	}
}
