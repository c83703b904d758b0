// Chunked (v2) trace format, the only one written: a v2 file is a
// sequence of fixed-target record chunks, each carrying its own header
// (record count, core set, delta of newly interned function names) so
// a reader never needs more than one chunk in memory, followed by a
// trailing index that lets seekable consumers jump straight to a
// chunk. The record wire format is shared with the read-only v1 format
// (magic | nFuncs u32 | nRecords u32 | names | records).
//
// Layout (all little-endian):
//
//	file header   magic2 u32 | version u32 | chunkRecords u32 | reserved u32
//	chunk         chunkMagic u32 | index u32 | nRecs u32 | fnBase u32 |
//	              nNewFns u32 | maxCore u32 | coreMask u64
//	              nNewFns × (len u32 | name bytes)
//	              nRecs × record (RecordSize bytes)
//	footer        indexMagic u32 | nChunks u32 | totalRecords u64 |
//	              nChunks × (offset u64 | records u32 | funcs u32 | coreMask u64) |
//	              indexOffset u64 | magic2 u32
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"prestores/internal/sim"
)

const (
	magic2     = 0x32545350 // "PST2"
	chunkMagic = 0x4b4e4843 // "CHNK"
	indexMagic = 0x58444e49 // "INDX"

	formatVersion2 = 2

	fileHeaderSize  = 16
	chunkHeaderSize = 32
	indexEntrySize  = 24
	trailerSize     = 12
)

// DefaultChunkRecords is the records-per-chunk target used when a
// Writer or a v1 synthesizing ChunkReader is not told otherwise.
const DefaultChunkRecords = 1 << 16

// maxChunkRecords bounds a single chunk on the decode side: corrupt
// counts must not force a multi-gigabyte allocation.
const maxChunkRecords = 1 << 22

// Chunk is one decoded slice of a trace. Records index into Funcs,
// the cumulative interned-name table as of this chunk — a chunk is
// therefore self-contained and can be shipped to a remote analyzer
// with EncodeChunk.
type Chunk struct {
	Index    int // position in the trace, 0-based
	Records  []Record
	Funcs    []string // cumulative function table; Record.Fn indexes it
	CoreMask uint64   // bit min(core,63) set for every core seen
	MaxCore  int      // highest core id seen in this chunk
}

// FuncName resolves an interned function id against the chunk's table.
func (c *Chunk) FuncName(id uint32) string {
	if int(id) < len(c.Funcs) {
		return c.Funcs[id]
	}
	return "?"
}

// ChunkInfo is one trailing-index entry.
type ChunkInfo struct {
	Offset   uint64 // file offset of the chunk header
	Records  uint32
	Funcs    uint32 // cumulative interned names after this chunk
	CoreMask uint64
}

// Index is the decoded trailing index of a v2 file.
type Index struct {
	ChunkRecords int
	TotalRecords uint64
	Chunks       []ChunkInfo
}

// WriterOptions configures a streaming trace Writer.
type WriterOptions struct {
	// ChunkRecords is the per-chunk record target; chunks are flushed
	// to the underlying writer as they fill. 0 means
	// DefaultChunkRecords.
	ChunkRecords int
}

// Writer streams trace records to an io.Writer in the chunked v2
// format with bounded memory: at most one chunk of records is ever
// buffered, so recording RSS stays flat in the trace length.
type Writer struct {
	bw      *bufio.Writer
	target  int
	started bool
	closed  bool
	err     error

	fnIDs      map[string]uint32
	fnNames    []string
	flushedFns int // names already persisted by earlier chunks

	recs     []Record
	coreMask uint64
	maxCore  uint32

	index []ChunkInfo
	total uint64
	off   uint64 // bytes written so far
}

// NewWriter returns a streaming v2 writer over w.
func NewWriter(w io.Writer, opts WriterOptions) *Writer {
	target := opts.ChunkRecords
	if target <= 0 {
		target = DefaultChunkRecords
	}
	if target > maxChunkRecords {
		target = maxChunkRecords
	}
	return &Writer{
		bw:     bufio.NewWriter(w),
		target: target,
		fnIDs:  make(map[string]uint32),
		recs:   make([]Record, 0, target),
	}
}

// Hook returns a sim.Hook that appends every operation to the writer.
// I/O errors stick and surface from Flush or Close.
func (w *Writer) Hook() sim.Hook {
	return func(ev sim.Event, _ *sim.Core) {
		w.Append(Record{
			Core:  uint16(ev.Core),
			Kind:  ev.Kind,
			Addr:  ev.Addr,
			Size:  ev.Size,
			Instr: ev.Instr,
			Cost:  ev.Cost,
		}, ev.Fn)
	}
}

// Append adds one record; fn is the record's function name and
// replaces any Fn id already in r. The signature mirrors the
// Buffer.Replay callback so a buffer re-encodes with
//
//	tb.Replay(func(r Record, fn string) { w.Append(r, fn) })
func (w *Writer) Append(r Record, fn string) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("trace: append to closed writer")
	}
	id, ok := w.fnIDs[fn]
	if !ok {
		if len(w.fnNames) >= MaxFuncs {
			w.err = fmt.Errorf("trace: function table overflow (limit %d)", MaxFuncs)
			return w.err
		}
		id = uint32(len(w.fnNames))
		w.fnIDs[fn] = id
		w.fnNames = append(w.fnNames, fn)
	}
	r.Fn = id
	w.recs = append(w.recs, r)
	w.coreMask |= 1 << min(int(r.Core), 63)
	if uint32(r.Core) > w.maxCore {
		w.maxCore = uint32(r.Core)
	}
	if len(w.recs) >= w.target {
		return w.flushChunk()
	}
	return nil
}

// Err reports the first error the writer hit — useful while feeding it
// through Hook, which has no error return.
func (w *Writer) Err() error { return w.err }

// Records returns the number of records accepted so far.
func (w *Writer) Records() uint64 { return w.total + uint64(len(w.recs)) }

// Chunks returns the number of chunks flushed so far.
func (w *Writer) Chunks() int { return len(w.index) }

func (w *Writer) start() error {
	if w.started {
		return nil
	}
	w.started = true
	var hdr [fileHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic2)
	binary.LittleEndian.PutUint32(hdr[4:], formatVersion2)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(w.target))
	return w.write(hdr[:])
}

func (w *Writer) write(b []byte) error {
	n, err := w.bw.Write(b)
	w.off += uint64(n)
	if err != nil {
		w.err = err
	}
	return err
}

func (w *Writer) flushChunk() error {
	if err := w.start(); err != nil {
		return err
	}
	if len(w.recs) == 0 {
		return nil
	}
	info := ChunkInfo{
		Offset:   w.off,
		Records:  uint32(len(w.recs)),
		Funcs:    uint32(len(w.fnNames)),
		CoreMask: w.coreMask,
	}
	newFns := w.fnNames[w.flushedFns:]
	var hdr [chunkHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], chunkMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(w.index)))
	binary.LittleEndian.PutUint32(hdr[8:], info.Records)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(w.flushedFns))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(newFns)))
	binary.LittleEndian.PutUint32(hdr[20:], w.maxCore)
	binary.LittleEndian.PutUint64(hdr[24:], w.coreMask)
	if err := w.write(hdr[:]); err != nil {
		return err
	}
	var lenb [4]byte
	for _, name := range newFns {
		binary.LittleEndian.PutUint32(lenb[:], uint32(len(name)))
		if err := w.write(lenb[:]); err != nil {
			return err
		}
		if err := w.write([]byte(name)); err != nil {
			return err
		}
	}
	var rec [RecordSize]byte
	for _, r := range w.recs {
		PutRecord(rec[:], r)
		if err := w.write(rec[:]); err != nil {
			return err
		}
	}
	w.flushedFns = len(w.fnNames)
	w.index = append(w.index, info)
	w.total += uint64(info.Records)
	w.recs = w.recs[:0]
	w.coreMask = 0
	w.maxCore = 0
	return nil
}

// Flush writes any partially filled chunk and flushes buffered bytes.
// The file is still missing its footer until Close.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if err := w.flushChunk(); err != nil {
		return err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = err
	}
	return w.err
}

// Close flushes the final chunk, writes the trailing index and footer,
// and flushes the underlying writer. The Writer is unusable afterward.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err != nil {
		return w.err
	}
	if err := w.start(); err != nil {
		return err
	}
	if err := w.flushChunk(); err != nil {
		return err
	}
	indexOff := w.off
	var b [16]byte
	binary.LittleEndian.PutUint32(b[0:], indexMagic)
	binary.LittleEndian.PutUint32(b[4:], uint32(len(w.index)))
	binary.LittleEndian.PutUint64(b[8:], w.total)
	if err := w.write(b[:]); err != nil {
		return err
	}
	var ent [indexEntrySize]byte
	for _, info := range w.index {
		binary.LittleEndian.PutUint64(ent[0:], info.Offset)
		binary.LittleEndian.PutUint32(ent[8:], info.Records)
		binary.LittleEndian.PutUint32(ent[12:], info.Funcs)
		binary.LittleEndian.PutUint64(ent[16:], info.CoreMask)
		if err := w.write(ent[:]); err != nil {
			return err
		}
	}
	var tr [trailerSize]byte
	binary.LittleEndian.PutUint64(tr[0:], indexOff)
	binary.LittleEndian.PutUint32(tr[8:], magic2)
	if err := w.write(tr[:]); err != nil {
		return err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = err
	}
	return w.err
}

// EncodeChunked writes the buffer in the chunked v2 format.
func (b *Buffer) EncodeChunked(w io.Writer, chunkRecords int) error {
	cw := NewWriter(w, WriterOptions{ChunkRecords: chunkRecords})
	for _, r := range b.records {
		if err := cw.Append(r, b.FuncName(r.Fn)); err != nil {
			return err
		}
	}
	return cw.Close()
}

// ChunkReader streams chunks out of a trace with bounded memory. It
// reads both formats: v2 files yield their native chunks, v1 files are
// synthesized into chunks of DefaultChunkRecords so every consumer of
// big traces has one code path.
type ChunkReader struct {
	br      *bufio.Reader
	v1      bool
	target  int
	fnNames []string
	next    int
	nRead   uint64 // records delivered so far
	remain  uint32 // v1: records left
	done    bool
	err     error
}

// NewChunkReader sniffs the format of r and returns a chunk iterator.
func NewChunkReader(r io.Reader) (*ChunkReader, error) {
	br := bufio.NewReader(r)
	m, err := peekMagic(br)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	cr := &ChunkReader{br: br}
	switch m {
	case magic:
		cr.v1 = true
		cr.target = DefaultChunkRecords
		var hdr [12]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return nil, err
		}
		nFns := binary.LittleEndian.Uint32(hdr[4:])
		cr.remain = binary.LittleEndian.Uint32(hdr[8:])
		if nFns > MaxFuncs {
			return nil, fmt.Errorf("trace: function table size %d exceeds limit %d", nFns, MaxFuncs)
		}
		cr.fnNames = make([]string, 0, nFns)
		for i := uint32(0); i < nFns; i++ {
			name, err := readName(br)
			if err != nil {
				return nil, err
			}
			cr.fnNames = append(cr.fnNames, name)
		}
	case magic2:
		var hdr [fileHeaderSize]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return nil, err
		}
		if v := binary.LittleEndian.Uint32(hdr[4:]); v != formatVersion2 {
			return nil, fmt.Errorf("trace: unsupported format version %d", v)
		}
		cr.target = int(binary.LittleEndian.Uint32(hdr[8:]))
		if cr.target <= 0 || cr.target > maxChunkRecords {
			return nil, fmt.Errorf("trace: chunk record target %d out of range", cr.target)
		}
	default:
		return nil, fmt.Errorf("trace: bad magic")
	}
	return cr, nil
}

// ChunkIter yields a trace's chunks in order, then io.EOF;
// ChunkReader satisfies it.
type ChunkIter interface {
	Next() (*Chunk, error)
}

// ForEach calls fn on every chunk it yields, in order, stopping at
// io.EOF (returning nil) or at the first error.
func ForEach(it ChunkIter, fn func(*Chunk) error) error {
	for {
		c, err := it.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(c); err != nil {
			return err
		}
	}
}

// ChunkRecords returns the file's per-chunk record target.
func (cr *ChunkReader) ChunkRecords() int { return cr.target }

// Next returns the next chunk, or io.EOF after the last one. The
// returned chunk does not alias reader state that later calls mutate.
func (cr *ChunkReader) Next() (*Chunk, error) {
	if cr.err != nil {
		return nil, cr.err
	}
	if cr.done {
		return nil, io.EOF
	}
	c, err := cr.read()
	if err != nil {
		if err == io.EOF {
			cr.done = true
		} else {
			cr.err = err
		}
		return nil, err
	}
	cr.next++
	cr.nRead += uint64(len(c.Records))
	return c, nil
}

func (cr *ChunkReader) read() (*Chunk, error) {
	if cr.v1 {
		return cr.readV1()
	}
	m, err := peekMagic(cr.br)
	if err != nil {
		if err == io.EOF {
			// A writer that crashed before Close leaves no footer;
			// everything up to here is still a valid prefix.
			return nil, io.EOF
		}
		return nil, err
	}
	if m == indexMagic {
		return nil, cr.checkFooter()
	}
	return cr.readChunk(false)
}

// readChunk decodes one chunk: header, function-name delta and
// records. A standalone chunk (EncodeChunk) may carry any index.
func (cr *ChunkReader) readChunk(standalone bool) (*Chunk, error) {
	var hdr [chunkHeaderSize]byte
	if _, err := io.ReadFull(cr.br, hdr[:]); err != nil {
		return nil, unexpectedEOF(err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != chunkMagic {
		return nil, fmt.Errorf("trace: bad chunk magic")
	}
	idx := binary.LittleEndian.Uint32(hdr[4:])
	nRecs := binary.LittleEndian.Uint32(hdr[8:])
	fnBase := binary.LittleEndian.Uint32(hdr[12:])
	nNewFns := binary.LittleEndian.Uint32(hdr[16:])
	maxCore := binary.LittleEndian.Uint32(hdr[20:])
	coreMask := binary.LittleEndian.Uint64(hdr[24:])
	if int(idx) != cr.next && !standalone {
		return nil, fmt.Errorf("trace: chunk index %d, want %d", idx, cr.next)
	}
	if int(fnBase) != len(cr.fnNames) {
		return nil, fmt.Errorf("trace: chunk function base %d, want %d", fnBase, len(cr.fnNames))
	}
	if nRecs > maxChunkRecords {
		return nil, fmt.Errorf("trace: chunk record count %d exceeds limit %d", nRecs, maxChunkRecords)
	}
	if uint64(fnBase)+uint64(nNewFns) > MaxFuncs {
		return nil, fmt.Errorf("trace: function table size %d exceeds limit %d", uint64(fnBase)+uint64(nNewFns), MaxFuncs)
	}
	for i := uint32(0); i < nNewFns; i++ {
		name, err := readName(cr.br)
		if err != nil {
			return nil, unexpectedEOF(err)
		}
		cr.fnNames = append(cr.fnNames, name)
	}
	recs, err := cr.readRecords(nRecs)
	if err != nil {
		return nil, err
	}
	return &Chunk{
		Index:    int(idx),
		Records:  recs,
		Funcs:    cr.fnNames[:len(cr.fnNames):len(cr.fnNames)],
		CoreMask: coreMask,
		MaxCore:  int(maxCore),
	}, nil
}

func (cr *ChunkReader) readV1() (*Chunk, error) {
	if cr.remain == 0 {
		return nil, io.EOF
	}
	n := uint32(cr.target)
	if cr.remain < n {
		n = cr.remain
	}
	recs, err := cr.readRecords(n)
	if err != nil {
		return nil, err
	}
	cr.remain -= n
	c := &Chunk{
		Index:   cr.next,
		Records: recs,
		Funcs:   cr.fnNames[:len(cr.fnNames):len(cr.fnNames)],
	}
	for _, r := range recs {
		c.CoreMask |= 1 << min(int(r.Core), 63)
		if int(r.Core) > c.MaxCore {
			c.MaxCore = int(r.Core)
		}
	}
	return c, nil
}

func (cr *ChunkReader) readRecords(n uint32) ([]Record, error) {
	// Cap the preallocation: a corrupt count must not force a huge
	// allocation before the reads fail naturally.
	recs := make([]Record, 0, min(n, 1<<16))
	var rec [RecordSize]byte
	for i := uint32(0); i < n; i++ {
		if _, err := io.ReadFull(cr.br, rec[:]); err != nil {
			return nil, unexpectedEOF(err)
		}
		r := GetRecord(rec[:])
		if int(r.Fn) >= len(cr.fnNames) {
			return nil, fmt.Errorf("trace: record references function id %d outside table of %d", r.Fn, len(cr.fnNames))
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// checkFooter consumes the index header, cross-checks it against what
// the reader actually saw, and ends the stream.
func (cr *ChunkReader) checkFooter() error {
	var b [16]byte
	if _, err := io.ReadFull(cr.br, b[:]); err != nil {
		return unexpectedEOF(err)
	}
	nChunks := binary.LittleEndian.Uint32(b[4:])
	total := binary.LittleEndian.Uint64(b[8:])
	if int(nChunks) != cr.next {
		return fmt.Errorf("trace: footer claims %d chunks, read %d", nChunks, cr.next)
	}
	if total != cr.nRead {
		return fmt.Errorf("trace: footer claims %d records, read %d", total, cr.nRead)
	}
	return io.EOF
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// EncodeChunk writes one chunk standalone: full function table, no
// delta — the unit shipped to a remote chunk analyzer.
func EncodeChunk(w io.Writer, c *Chunk) error {
	bw := bufio.NewWriter(w)
	var hdr [chunkHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], chunkMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(c.Index))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(c.Records)))
	binary.LittleEndian.PutUint32(hdr[12:], 0)
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(c.Funcs)))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(c.MaxCore))
	binary.LittleEndian.PutUint64(hdr[24:], c.CoreMask)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	for _, name := range c.Funcs {
		if err := writeName(bw, name); err != nil {
			return err
		}
	}
	var rec [RecordSize]byte
	for _, r := range c.Records {
		PutRecord(rec[:], r)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeChunk reads one standalone chunk written by EncodeChunk.
func DecodeChunk(r io.Reader) (*Chunk, error) {
	cr := &ChunkReader{br: bufio.NewReader(r)}
	return cr.readChunk(true)
}

// ReadIndex seeks to the trailing index of a v2 file and decodes it
// without touching the chunk payloads.
func ReadIndex(rs io.ReadSeeker) (*Index, error) {
	end, err := rs.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	if end < fileHeaderSize+trailerSize {
		return nil, fmt.Errorf("trace: file too small for a v2 footer")
	}
	if _, err := rs.Seek(end-trailerSize, io.SeekStart); err != nil {
		return nil, err
	}
	var tr [trailerSize]byte
	if _, err := io.ReadFull(rs, tr[:]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(tr[8:]) != magic2 {
		return nil, fmt.Errorf("trace: bad footer magic")
	}
	indexOff := binary.LittleEndian.Uint64(tr[0:])
	if indexOff < fileHeaderSize || indexOff > uint64(end-trailerSize) {
		return nil, fmt.Errorf("trace: index offset %d out of range", indexOff)
	}
	if _, err := rs.Seek(int64(indexOff), io.SeekStart); err != nil {
		return nil, err
	}
	br := bufio.NewReader(io.LimitReader(rs, end-trailerSize-int64(indexOff)))
	var b [16]byte
	if _, err := io.ReadFull(br, b[:]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(b[0:]) != indexMagic {
		return nil, fmt.Errorf("trace: bad index magic")
	}
	nChunks := binary.LittleEndian.Uint32(b[4:])
	idx := &Index{TotalRecords: binary.LittleEndian.Uint64(b[8:])}
	if uint64(nChunks)*indexEntrySize != uint64(end-trailerSize)-indexOff-16 {
		return nil, fmt.Errorf("trace: index size mismatch")
	}
	if _, err := rs.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	cr, err := NewChunkReader(io.LimitReader(rs, fileHeaderSize))
	if err != nil {
		return nil, err
	}
	if cr.v1 {
		return nil, fmt.Errorf("trace: bad magic")
	}
	idx.ChunkRecords = cr.ChunkRecords()
	if _, err := rs.Seek(int64(indexOff)+16, io.SeekStart); err != nil {
		return nil, err
	}
	br = bufio.NewReader(io.LimitReader(rs, int64(nChunks)*indexEntrySize))
	var ent [indexEntrySize]byte
	idx.Chunks = make([]ChunkInfo, 0, min(int(nChunks), 1<<16))
	for i := uint32(0); i < nChunks; i++ {
		if _, err := io.ReadFull(br, ent[:]); err != nil {
			return nil, err
		}
		idx.Chunks = append(idx.Chunks, ChunkInfo{
			Offset:   binary.LittleEndian.Uint64(ent[0:]),
			Records:  binary.LittleEndian.Uint32(ent[8:]),
			Funcs:    binary.LittleEndian.Uint32(ent[12:]),
			CoreMask: binary.LittleEndian.Uint64(ent[16:]),
		})
	}
	return idx, nil
}
