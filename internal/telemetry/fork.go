package telemetry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

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

// Restore replaces the machine's share of the recorder's state with one
// Save encoded. It changes nothing and returns an error when data is
// truncated or corrupt, was saved under other settings or another line
// size, or holds more lines than fit under MaxLines next to the other
// machines' (a cold run would have dropped some).
func (f *Fork) Restore(data []byte) error {
	st, err := decodeState(data)
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
	n := r.nlines - len(f.ms.lines) + len(st.lines)
	if n > c.MaxLines {
		return fmt.Errorf("telemetry: %d restored lines exceed the line table cap %d", n, c.MaxLines)
	}
	r.nlines = n
	f.ms.lines, f.ms.buckets, f.ms.droppedLines = st.lines, st.buckets, 0
	return nil
}

// forkState is one machine's saved line-report state and the settings
// it was recorded under.
type forkState struct {
	lineSize, bucketBytes, maxLines, nearRewrite, nearReread uint64

	lines   map[uint64]*lineRec
	buckets map[uint64]*bucketRec
}

// The encoding is the snap codec: a section tag, a version, the
// settings, the lines and buckets in ascending address order, and a
// CRC-32C of everything before it. The order makes the encoding
// canonical, and the checksum turns a damaged store entry into a clean
// decode error instead of a wrong report.
const (
	stateTag       = "PSRS"
	stateVersion   = 1
	lineRecBytes   = 9*8 + 1 // the address, eight fields, the written flag
	bucketRecBytes = 4 * 8   // the base, three byte counts
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (st *forkState) encode() []byte {
	var w snap.Writer
	w.Section(stateTag)
	w.U64(stateVersion)
	for _, v := range []uint64{st.lineSize, st.bucketBytes, st.maxLines, st.nearRewrite, st.nearReread} {
		w.U64(v)
	}
	addrs := make([]uint64, 0, len(st.lines))
	for a := range st.lines {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	w.U64(uint64(len(addrs)))
	for _, a := range addrs {
		li := st.lines[a]
		for _, v := range []uint64{a, li.writes, li.Rewrites, li.RewriteDistSum, li.NearRewrites,
			li.Rereads, li.RereadDistSum, li.NearRereads, li.LastWrite} {
			w.U64(v)
		}
		w.Bool(li.Written)
	}
	bases := make([]uint64, 0, len(st.buckets))
	for b := range st.buckets {
		bases = append(bases, b)
	}
	slices.Sort(bases)
	w.U64(uint64(len(bases)))
	for _, base := range bases {
		b := st.buckets[base]
		for _, v := range []uint64{base, b.appWriteBytes, b.deviceWriteBytes, b.deviceReadBytes} {
			w.U64(v)
		}
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
	count := func(size int) int {
		n := r.U64()
		if r.Err() != nil || n > uint64(len(body))/uint64(size) {
			return -1
		}
		return int(n)
	}
	// Addresses must strictly ascend, as encode writes them; besides
	// keeping the encoding canonical this rules out duplicate keys.
	var prev uint64
	ascending := func(i int, a uint64) bool {
		ok := i == 0 || a > prev
		prev = a
		return ok
	}

	n := count(lineRecBytes)
	if n < 0 {
		return nil, errors.New("telemetry: recorder state: bad line count")
	}
	recs := make([]lineRec, n)
	st.lines = make(map[uint64]*lineRec, n)
	for i := range recs {
		li := &recs[i]
		a := r.U64()
		li.writes, li.Rewrites, li.RewriteDistSum, li.NearRewrites = r.U64(), r.U64(), r.U64(), r.U64()
		li.Rereads, li.RereadDistSum, li.NearRereads, li.LastWrite = r.U64(), r.U64(), r.U64(), r.U64()
		flag := r.U8()
		li.Written = flag == 1
		if r.Err() != nil {
			return nil, fmt.Errorf("telemetry: recorder state: %w", r.Err())
		}
		if flag > 1 || !ascending(i, a) {
			return nil, errors.New("telemetry: recorder state is not canonical")
		}
		st.lines[a] = li
	}

	n = count(bucketRecBytes)
	if n < 0 {
		return nil, errors.New("telemetry: recorder state: bad bucket count")
	}
	brecs := make([]bucketRec, n)
	st.buckets = make(map[uint64]*bucketRec, n)
	for i := range brecs {
		b := &brecs[i]
		base := r.U64()
		b.appWriteBytes, b.deviceWriteBytes, b.deviceReadBytes = r.U64(), r.U64(), r.U64()
		if r.Err() != nil {
			return nil, fmt.Errorf("telemetry: recorder state: %w", r.Err())
		}
		if !ascending(i, base) {
			return nil, errors.New("telemetry: recorder state is not canonical")
		}
		st.buckets[base] = b
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("telemetry: recorder state: %w", err)
	}
	return st, nil
}
