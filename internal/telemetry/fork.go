package telemetry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"prestores/internal/checkpoint"
	"prestores/internal/core"
	"prestores/internal/sim"
	"prestores/internal/snap"
)

// A warm-forked run restores its machine from a checkpoint and skips
// the warm phase, so a recorder attached to it never sees that phase's
// events. A line report can still record exactly what a cold run
// records: its per-machine line and bucket tables are a function of the
// machine's events so far, so they are saved at the warm boundary next
// to the machine checkpoint and restored with it. A timeline cannot
// fork this way (its ring is shared by every attached machine and holds
// events in order), so a recorder with a timeline never forks.

// Fork is one attached machine's share of a recorder's line-report
// state: it saves and restores with that machine's warm checkpoint.
type Fork struct {
	r  *Recorder
	ms *machineState
}

// AttachFork attaches r to m like Attach and returns the handle that
// forks m's share of r's state, or nil when r cannot fork: it records a
// timeline, or no line report.
func (r *Recorder) AttachFork(m *sim.Machine) *Fork {
	ms := r.attach(m)
	if r.cfg.Timeline || !r.cfg.LineReport {
		return nil
	}
	return &Fork{r: r, ms: ms}
}

// Key names the recorder settings that shape a saved state. A state
// saved under one key restores only into a recorder with the same key.
func (f *Fork) Key() string {
	c := f.r.cfg
	return fmt.Sprintf("linereport\x00%d\x00%d\x00%d\x00%d", c.BucketBytes, c.MaxLines, core.NearRewrite, core.NearReread)
}

// Save encodes the machine's line and bucket state so far. It reports
// false when the state cannot fork: lines were dropped at the MaxLines
// cap, and which ones depends on the other machines' lines too.
func (f *Fork) Save() ([]byte, bool) {
	f.r.mu.Lock()
	defer f.r.mu.Unlock()
	if f.ms.droppedLines > 0 {
		return nil, false
	}
	st := &forkState{
		lineSize: f.ms.lineSize, bucketBytes: f.r.cfg.BucketBytes, maxLines: uint64(f.r.cfg.MaxLines),
		nearRewrite: core.NearRewrite, nearReread: core.NearReread,
		lines: f.ms.lines, buckets: f.ms.buckets,
	}
	return st.encode(), true
}

// Restore replaces the machine's share of the recorder's state with the
// one Save encoded and v's store holds under key. The store decodes an
// entry once and keeps the decoded records and addresses beside its
// bytes (see checkpoint.Decoded), so the forks of one warm state each
// copy them, and index their copy, instead of decoding again. Restore
// changes nothing and returns an error when key is not stored, its
// bytes are truncated or corrupt, they were saved under other settings
// or another line size, or they hold more lines than fit under MaxLines
// next to the other machines' (a cold run would have dropped some).
func (f *Fork) Restore(v *checkpoint.View, key string) error {
	st, err := checkpoint.Decoded(v, key, decodeEntry)
	if err != nil {
		return err
	}
	r := f.r
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.cfg
	if st.lineSize != f.ms.lineSize || st.bucketBytes != c.BucketBytes || st.maxLines != uint64(c.MaxLines) ||
		st.nearRewrite != core.NearRewrite || st.nearReread != core.NearReread {
		return errors.New("telemetry: recorder state was saved under other settings")
	}
	n := r.nlines - f.ms.lines.len() + st.lines.len()
	if n > c.MaxLines {
		return fmt.Errorf("telemetry: %d restored lines exceed the line table cap %d", n, c.MaxLines)
	}
	r.nlines = n
	f.ms.lines, f.ms.buckets, f.ms.droppedLines = st.lines.clone(), st.buckets.clone(), 0
	return nil
}

// forkState is one machine's saved line-report state and the settings
// it was recorded under. Its tables are templates: decodeState fills
// their records and addresses but builds no index, since a template is
// only ever cloned, and clone indexes the copy.
type forkState struct {
	lineSize, bucketBytes, maxLines, nearRewrite, nearReread uint64

	lines   table[lineRec]
	buckets table[bucketRec]
}

// decodeEntry decodes a stored state for the checkpoint store, which
// charges it the memory its templates hold.
func decodeEntry(data []byte) (*forkState, int64, error) {
	st, err := decodeState(data)
	if err != nil {
		return nil, 0, err
	}
	return st, st.lines.bytes() + st.buckets.bytes(), nil
}

// The encoding is the snap codec: a section tag, a version, the
// settings, the lines and buckets in ascending address order, and a
// CRC-32C of everything before it. Each record's address is written as
// its distance from the previous record's (the first as itself), and
// the address and every count as a minimal varint: most counts are
// small, and a line record shrinks from 73 bytes to about 14. The order
// and the minimal varints make the encoding canonical, and the checksum
// turns a damaged store entry into a clean decode error instead of a
// wrong report.
const (
	stateTag       = "PSRS"
	stateVersion   = 2     // 2: delta-coded addresses, varint fields
	lineRecBytes   = 9 + 1 // at least: the address, eight fields, the written flag
	bucketRecBytes = 4     // at least: the base, three byte counts
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (st *forkState) encode() []byte {
	var w snap.Writer
	w.Section(stateTag)
	w.U64(stateVersion)
	for _, v := range []uint64{st.lineSize, st.bucketBytes, st.maxLines, st.nearRewrite, st.nearReread} {
		w.U64(v)
	}
	w.U64(uint64(st.lines.len()))
	var prev uint64
	for _, i := range st.lines.ascending() {
		li := &st.lines.recs[i]
		a := st.lines.addrs[i]
		for _, v := range []uint64{a - prev, li.writes, li.Rewrites, li.RewriteDistSum, li.NearRewrites,
			li.Rereads, li.RereadDistSum, li.NearRereads, li.LastWrite} {
			w.Uvarint(v)
		}
		w.Bool(li.Written)
		prev = a
	}
	w.U64(uint64(st.buckets.len()))
	prev = 0
	for _, i := range st.buckets.ascending() {
		b := &st.buckets.recs[i]
		a := st.buckets.addrs[i]
		for _, v := range []uint64{a - prev, b.appWriteBytes, b.deviceWriteBytes, b.deviceReadBytes} {
			w.Uvarint(v)
		}
		prev = a
	}
	body := w.Finish()
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
}

// decodeState parses bytes read back from a checkpoint store, which may
// have come from its disk tier: any truncation, corruption or
// non-canonical input is an error, never a panic.
func decodeState(data []byte) (*forkState, error) {
	if len(data) < 4 {
		return nil, errors.New("telemetry: recorder state truncated")
	}
	body := data[:len(data)-4]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil, errors.New("telemetry: recorder state checksum mismatch")
	}
	r := snap.NewReader(body)
	r.Section(stateTag)
	if v := r.U64(); r.Err() == nil && v != stateVersion {
		return nil, fmt.Errorf("telemetry: recorder state version %d, want %d", v, stateVersion)
	}
	st := &forkState{
		lineSize: r.U64(), bucketBytes: r.U64(), maxLines: r.U64(),
		nearRewrite: r.U64(), nearReread: r.U64(),
	}
	// Addresses must strictly ascend, as encode writes them: every
	// delta after the first is non-zero and does not wrap. Besides
	// keeping the encoding canonical this rules out duplicate keys. The
	// flat index a fork builds reserves the all-ones key, which no line
	// or bucket base can be.
	var prev uint64
	next := func(i int) (uint64, bool) {
		a := prev + r.Uvarint()
		ok := (i == 0 || a > prev) && a != ^uint64(0)
		prev = a
		return a, ok
	}

	n := r.Count(lineRecBytes)
	if r.Err() != nil {
		return nil, fmt.Errorf("telemetry: recorder state: lines: %w", r.Err())
	}
	st.lines = table[lineRec]{addrs: make([]uint64, n), recs: make([]lineRec, n)}
	for i := 0; i < n; i++ {
		a, ok := next(i)
		li := &st.lines.recs[i]
		li.writes, li.Rewrites, li.RewriteDistSum, li.NearRewrites = r.Uvarint(), r.Uvarint(), r.Uvarint(), r.Uvarint()
		li.Rereads, li.RereadDistSum, li.NearRereads, li.LastWrite = r.Uvarint(), r.Uvarint(), r.Uvarint(), r.Uvarint()
		flag := r.U8()
		li.Written = flag == 1
		if r.Err() != nil {
			return nil, fmt.Errorf("telemetry: recorder state: %w", r.Err())
		}
		if flag > 1 || !ok {
			return nil, errors.New("telemetry: recorder state is not canonical")
		}
		st.lines.addrs[i] = a
	}

	n = r.Count(bucketRecBytes)
	if r.Err() != nil {
		return nil, fmt.Errorf("telemetry: recorder state: buckets: %w", r.Err())
	}
	st.buckets = table[bucketRec]{addrs: make([]uint64, n), recs: make([]bucketRec, n)}
	prev = 0
	for i := 0; i < n; i++ {
		a, ok := next(i)
		b := &st.buckets.recs[i]
		b.appWriteBytes, b.deviceWriteBytes, b.deviceReadBytes = r.Uvarint(), r.Uvarint(), r.Uvarint()
		if r.Err() != nil {
			return nil, fmt.Errorf("telemetry: recorder state: %w", r.Err())
		}
		if !ok {
			return nil, errors.New("telemetry: recorder state is not canonical")
		}
		st.buckets.addrs[i] = a
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("telemetry: recorder state: %w", err)
	}
	return st, nil
}
