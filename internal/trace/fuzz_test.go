package trace

import (
	"bytes"
	"testing"
)

// FuzzDecode throws arbitrary bytes at the trace decoder: it must
// return an error or a valid buffer, never panic or hang.
func FuzzDecode(f *testing.F) {
	// Seed with a real encoding.
	b := NewBuffer()
	b.records = append(b.records, Record{Core: 1, Addr: 64, Size: 8, Fn: b.intern("f"), Instr: 3, Cost: 5})
	f.Add(v1Fixture(f, "one.v1.pstr"))
	f.Add([]byte{})
	f.Add([]byte("PSTR"))
	// v2 chunked seeds alongside the v1 corpus.
	var seed2 bytes.Buffer
	if err := b.EncodeChunked(&seed2, 1); err != nil {
		f.Fatal(err)
	}
	f.Add(seed2.Bytes())
	f.Add([]byte("PST2"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tb, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successful decode must replay and re-encode cleanly.
		count := 0
		tb.Replay(func(Record, string) { count++ })
		if count != tb.Len() {
			t.Fatalf("replay visited %d of %d records", count, tb.Len())
		}
		var out bytes.Buffer
		if err := tb.EncodeChunked(&out, 0); err != nil {
			t.Fatalf("re-encode of decoded trace failed: %v", err)
		}
	})
}

// dupNamesV2 is a chunked trace whose function table repeats a name,
// ["f" "f"], with one record on each entry. The Writer never emits
// such a table (it interns), so the second name is patched in.
func dupNamesV2(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, WriterOptions{})
	w.Append(Record{Addr: 64, Size: 8}, "f")
	w.Append(Record{Addr: 128, Size: 8}, "g")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The chunk's name delta follows its header: len u32 | "f" | len u32 | "g".
	raw[fileHeaderSize+chunkHeaderSize+4+1+4] = 'f'
	return raw
}

// FuzzDecodeMatchesChunkReader checks the whole-buffer Decode against
// the chunk stream: on any input both accept, they yield the same
// records resolved to the same function names.
func FuzzDecodeMatchesChunkReader(f *testing.F) {
	f.Add(v1Fixture(f, "dupnames.v1.pstr"))
	f.Add(dupNamesV2(f))
	f.Add(v1Fixture(f, "fg.v1.pstr"))
	var v2 bytes.Buffer
	if err := recordMany(f, 300).EncodeChunked(&v2, 64); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())

	type named struct {
		r  Record
		fn string
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tb, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		cr, err := NewChunkReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var want []named
		err = ForEach(cr, func(c *Chunk) error {
			for _, r := range c.Records {
				want = append(want, named{r, c.FuncName(r.Fn)})
			}
			return nil
		})
		if err != nil {
			return
		}
		var got []named
		tb.Replay(func(r Record, fn string) { got = append(got, named{r, fn}) })
		if len(got) != len(want) {
			t.Fatalf("Decode yields %d records, ChunkReader %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("record %d: Decode %+v (%q), ChunkReader %+v (%q)",
					i, got[i].r, got[i].fn, want[i].r, want[i].fn)
			}
		}
	})
}

// FuzzChunkReader throws arbitrary bytes at the streaming chunk
// reader: it must return errors or well-formed chunks, never panic.
func FuzzChunkReader(f *testing.F) {
	b := NewBuffer()
	b.records = append(b.records,
		Record{Core: 1, Addr: 64, Size: 8, Fn: b.intern("f"), Instr: 3, Cost: 5},
		Record{Core: 2, Addr: 128, Size: 8, Fn: b.intern("g"), Instr: 4, Cost: 6},
	)
	var v2 bytes.Buffer
	if err := b.EncodeChunked(&v2, 1); err != nil {
		f.Fatal(err)
	}
	f.Add(v1Fixture(f, "fg.v1.pstr"))
	f.Add(v2.Bytes())
	f.Add(v2.Bytes()[:v2.Len()/2])
	var standalone bytes.Buffer
	cr0, err := NewChunkReader(bytes.NewReader(v2.Bytes()))
	if err != nil {
		f.Fatal(err)
	}
	c0, err := cr0.Next()
	if err != nil {
		f.Fatal(err)
	}
	if err := EncodeChunk(&standalone, c0); err != nil {
		f.Fatal(err)
	}
	f.Add(standalone.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		cr, err := NewChunkReader(bytes.NewReader(data))
		if err == nil {
			for i := 0; i < 1<<12; i++ {
				c, err := cr.Next()
				if err != nil {
					break
				}
				// Every delivered record must resolve in the table.
				for _, r := range c.Records {
					if int(r.Fn) >= len(c.Funcs) {
						t.Fatalf("chunk %d: fn id %d outside table of %d", c.Index, r.Fn, len(c.Funcs))
					}
				}
				// A delivered chunk must survive the standalone codec.
				var buf bytes.Buffer
				if err := EncodeChunk(&buf, c); err != nil {
					t.Fatalf("re-encode of decoded chunk: %v", err)
				}
				if _, err := DecodeChunk(bytes.NewReader(buf.Bytes())); err != nil {
					t.Fatalf("re-decode of re-encoded chunk: %v", err)
				}
			}
		}
		_, _ = DecodeChunk(bytes.NewReader(data))
	})
}

// FuzzRoundtrip checks that any record content survives encode/decode.
func FuzzRoundtrip(f *testing.F) {
	f.Add(uint16(0), uint8(1), uint64(64), uint64(8), uint64(10), uint64(4), "fn")
	f.Fuzz(func(t *testing.T, core uint16, kind uint8, addr, size, instr, cost uint64, fn string) {
		b := NewBuffer()
		b.records = append(b.records, Record{
			Core: core, Kind: 0, Addr: addr, Size: size,
			Fn: b.intern(fn), Instr: instr, Cost: cost,
		})
		_ = kind
		var buf bytes.Buffer
		if err := b.EncodeChunked(&buf, 0); err != nil {
			t.Fatal(err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var orig, dec Record
		var origFn, decFn string
		b.Replay(func(r Record, n string) { orig, origFn = r, n })
		got.Replay(func(r Record, n string) { dec, decFn = r, n })
		if orig != dec || origFn != decFn {
			t.Fatalf("roundtrip mismatch: %+v/%q vs %+v/%q", orig, origFn, dec, decFn)
		}
	})
}
