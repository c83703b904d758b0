// Package trace records the simulator's operation stream — the
// equivalent of the Intel PIN instrumentation DirtBuster uses in its
// second step — and can persist it for offline analysis.
//
// A Writer subscribes to a machine's hook and streams one compact
// record per operation to a chunked binary file (PST2, see chunked.go),
// so an application can be traced once and analyzed many times,
// mirroring the paper's "intended usage ... executed offline, as an
// optimization pass". ChunkReader is the only decoder: it reads PST2
// and the legacy whole-buffer PSTR (v1) format, which is read-only.
// A Buffer is the in-memory recording that tests and the monolithic
// reference analysis replay.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"prestores/internal/sim"
)

// Record is one traced operation.
type Record struct {
	Core  uint16
	Kind  sim.OpKind
	Addr  uint64
	Size  uint64
	Fn    uint32 // interned function id; see Buffer.FuncName
	Instr uint64 // issuing core's instruction counter
	Cost  uint64 // cycles the op advanced the issuing core
}

// Buffer accumulates trace records in memory.
type Buffer struct {
	records []Record
	fnIDs   map[string]uint32
	fnNames []string
}

// NewBuffer returns an empty trace buffer.
func NewBuffer() *Buffer {
	return &Buffer{fnIDs: make(map[string]uint32)}
}

// Hook returns a sim.Hook that appends every operation to the buffer.
func (b *Buffer) Hook() sim.Hook {
	return func(ev sim.Event, _ *sim.Core) {
		b.records = append(b.records, Record{
			Core:  uint16(ev.Core),
			Kind:  ev.Kind,
			Addr:  ev.Addr,
			Size:  ev.Size,
			Fn:    b.intern(ev.Fn),
			Instr: ev.Instr,
			Cost:  ev.Cost,
		})
	}
}

func (b *Buffer) intern(fn string) uint32 {
	if id, ok := b.fnIDs[fn]; ok {
		return id
	}
	id := uint32(len(b.fnNames))
	b.fnIDs[fn] = id
	b.fnNames = append(b.fnNames, fn)
	return id
}

// Len returns the number of records.
func (b *Buffer) Len() int { return len(b.records) }

// FuncName resolves an interned function id.
func (b *Buffer) FuncName(id uint32) string {
	if int(id) < len(b.fnNames) {
		return b.fnNames[id]
	}
	return "?"
}

// Replay calls fn for every record in order.
func (b *Buffer) Replay(fn func(r Record, fnName string)) {
	for _, r := range b.records {
		fn(r, b.FuncName(r.Fn))
	}
}

const magic = 0x50535452 // "PSTR", the read-only v1 format

// MaxFuncs bounds the interned function table. Real traces intern a
// handful of names; a corrupt header must not make a decoder allocate
// or index an unbounded table.
const MaxFuncs = 1 << 20

// maxNameLen bounds a single interned function name on the wire.
const maxNameLen = 1 << 16

// RecordSize is the fixed on-wire size of one encoded Record, shared
// by the v1 format, the v2 chunk format and the Partial wire codec.
const RecordSize = 39

// PutRecord encodes r into b, which must be at least RecordSize bytes.
func PutRecord(b []byte, r Record) {
	binary.LittleEndian.PutUint16(b[0:], r.Core)
	b[2] = byte(r.Kind)
	binary.LittleEndian.PutUint64(b[3:], r.Addr)
	binary.LittleEndian.PutUint64(b[11:], r.Size)
	binary.LittleEndian.PutUint32(b[19:], r.Fn)
	binary.LittleEndian.PutUint64(b[23:], r.Instr)
	binary.LittleEndian.PutUint64(b[31:], r.Cost)
}

// GetRecord decodes a record from b, which must be at least RecordSize
// bytes.
func GetRecord(b []byte) Record {
	return Record{
		Core:  binary.LittleEndian.Uint16(b[0:]),
		Kind:  sim.OpKind(b[2]),
		Addr:  binary.LittleEndian.Uint64(b[3:]),
		Size:  binary.LittleEndian.Uint64(b[11:]),
		Fn:    binary.LittleEndian.Uint32(b[19:]),
		Instr: binary.LittleEndian.Uint64(b[23:]),
		Cost:  binary.LittleEndian.Uint64(b[31:]),
	}
}

func writeName(bw *bufio.Writer, name string) error {
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(name))); err != nil {
		return err
	}
	_, err := bw.WriteString(name)
	return err
}

func readName(br *bufio.Reader) (string, error) {
	var n uint32
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > maxNameLen {
		return "", fmt.Errorf("trace: function name length %d too large", n)
	}
	name := make([]byte, n)
	if _, err := io.ReadFull(br, name); err != nil {
		return "", err
	}
	return string(name), nil
}

// Decode reads a whole trace (PST2, or legacy v1) into one in-memory
// Buffer through ChunkReader. The buffer keeps the last chunk's
// cumulative function table exactly as read, so every record resolves
// to the same name it does chunk by chunk. Decoding fails on corrupt
// input, including records whose function id falls outside the table.
func Decode(r io.Reader) (*Buffer, error) {
	cr, err := NewChunkReader(r)
	if err != nil {
		return nil, err
	}
	b := NewBuffer()
	err = ForEach(cr, func(c *Chunk) error {
		b.fnNames = c.Funcs
		b.records = append(b.records, c.Records...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}

func peekMagic(br *bufio.Reader) (uint32, error) {
	p, err := br.Peek(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(p), nil
}
