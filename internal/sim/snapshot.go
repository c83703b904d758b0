package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"prestores/internal/flatmap"
	"prestores/internal/memdev"
	"prestores/internal/snap"
	"prestores/internal/units"
)

// Snapshot format constants. The snapshot version covers the machine
// payload layout; the checkpoint version covers the outer envelope.
const (
	snapshotMagic   = "PSSN"
	snapshotVersion = 4 // 4: 1 KiB MEMS pages; CACH writes its way arrays whole

	checkpointMagic   = "PSCK"
	checkpointVersion = 1
)

// ConfigHash returns the SHA-256 (hex) of the machine configuration's
// canonical JSON encoding. Two machines with equal hashes are
// structurally identical — same cores, cache geometries, policies,
// seeds, windows and device parameters — so a snapshot taken on one
// restores exactly onto the other.
func (m *Machine) ConfigHash() string {
	data, err := json.Marshal(m.cfg)
	if err != nil {
		// The config came out of a successfully constructed machine;
		// failing to re-encode it is a programming error, not input.
		panic(fmt.Sprintf("sim: config hash: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Snapshot serializes all mutable machine state deterministically:
// per-core clocks, stats, private caches, store buffers and
// write-combining buffers; the shared LLC; the coherence directory; the
// write-back queue; the backing store's pages; and every window
// device's internal state. Two machines in identical states always
// produce identical bytes. The arena and configuration are not
// captured — a restore target is built by re-running the same
// deterministic construction (NewMachine plus the workload's Alloc
// calls), which reproduces them exactly.
//
// It returns an error if any window device does not support state
// snapshots.
func (m *Machine) Snapshot() ([]byte, error) {
	w := snap.NewWriter()
	w.Raw([]byte(snapshotMagic))
	w.U64(snapshotVersion)
	w.String(m.ConfigHash())
	w.Section("MACH")
	w.U64(uint64(len(m.cores)))
	for _, c := range m.cores {
		c.snapshotState(w)
	}
	m.llc.SnapshotState(w)
	m.dir.SnapshotState(w)
	m.wbq.snapshotState(w)
	m.backing.SnapshotState(w)
	w.U64(uint64(len(m.cfg.Windows)))
	for _, win := range m.cfg.Windows {
		ss, ok := win.Device.(memdev.StateSnapshotter)
		if !ok {
			return nil, fmt.Errorf("sim: device %q (%T) does not support state snapshots", win.Name, win.Device)
		}
		w.String(win.Name)
		ss.SnapshotState(w)
	}
	return w.Finish(), nil
}

// RestoreSnapshot overwrites the machine's mutable state with a
// snapshot produced by Snapshot on an identically-configured machine.
// The payload's config hash is checked against this machine's before
// any state is touched; a mismatch fails loudly. After a successful
// restore, every subsequent operation behaves — cycle for cycle,
// byte for byte — as it would have on the machine the snapshot was
// taken from.
//
// The restored backing store does not copy its pages: they alias data
// and are copied one at a time on their first write, so data must not
// be modified while the machine (or any machine restored from it) is
// live, and the machine keeps data reachable until it is collected.
//
// On a decode error partway through, the machine's state is undefined;
// callers must discard it.
func (m *Machine) RestoreSnapshot(data []byte) error {
	r := snap.NewReader(data)
	if err := m.readHeader(r); err != nil {
		return err
	}
	r.Section("MACH")
	if n := r.U64(); r.Err() == nil && n != uint64(len(m.cores)) {
		return fmt.Errorf("sim: snapshot has %d cores, machine has %d", n, len(m.cores))
	}
	for _, c := range m.cores {
		if err := c.restoreState(r); err != nil {
			return err
		}
	}
	if err := m.llc.RestoreState(r); err != nil {
		return err
	}
	if err := m.dir.RestoreState(r, len(m.cores)); err != nil {
		return err
	}
	if err := m.wbq.restoreState(r); err != nil {
		return err
	}
	if err := m.backing.RestoreState(r); err != nil {
		return err
	}
	if n := r.U64(); r.Err() == nil && n != uint64(len(m.cfg.Windows)) {
		return fmt.Errorf("sim: snapshot has %d windows, machine has %d", n, len(m.cfg.Windows))
	}
	for _, win := range m.cfg.Windows {
		name := r.String()
		if r.Err() == nil && name != win.Name {
			return fmt.Errorf("sim: snapshot window %q does not match machine window %q", name, win.Name)
		}
		ss, ok := win.Device.(memdev.StateSnapshotter)
		if !ok {
			return fmt.Errorf("sim: device %q (%T) does not support state snapshots", win.Name, win.Device)
		}
		if err := ss.RestoreState(r); err != nil {
			return err
		}
	}
	// The restored instruction counts were retired by the run that
	// produced the snapshot; marking them flushed keeps them out of this
	// process's throughput counters, so a warm-forked run reports only
	// the work it actually simulated.
	var total uint64
	for _, c := range m.cores {
		total += c.instr
	}
	m.opsFlushed = total
	m.lastWin = 0
	return r.Done()
}

// readHeader reads a snapshot's magic, version and config hash, and
// reports an error unless all three match what m's Snapshot writes.
func (m *Machine) readHeader(r *snap.Reader) error {
	var magic [4]byte
	r.Raw(magic[:])
	if r.Err() == nil && string(magic[:]) != snapshotMagic {
		return fmt.Errorf("sim: not a machine snapshot (magic %q)", magic)
	}
	if v := r.U64(); r.Err() == nil && v != snapshotVersion {
		return fmt.Errorf("sim: unsupported snapshot version %d (want %d)", v, snapshotVersion)
	}
	want := m.ConfigHash()
	if got := r.String(); r.Err() == nil && got != want {
		return fmt.Errorf("sim: snapshot config hash %.12s… does not match machine %.12s…", got, want)
	}
	return r.Err()
}

// snapshotState serializes the core's mutable state. Live store-buffer
// entries are written with sbBase and restored at sbHead 0; because
// drains advance head and base together, a live entry's sequence number
// (and therefore every sbIndex key, present and future) is identical
// before and after the round trip.
func (c *Core) snapshotState(w *snap.Writer) {
	w.Section("CORE")
	w.U64(c.now)
	w.U64(c.instr)
	c.l1.SnapshotState(w)
	w.Bool(c.l2 != nil)
	if c.l2 != nil {
		c.l2.SnapshotState(w)
	}
	live := c.sb[c.sbHead:]
	w.U64(uint64(len(live)))
	for i := range live {
		e := &live[i]
		w.U64(e.line)
		w.Bool(e.started)
		w.Bool(e.cleaned)
		w.U64(e.issued)
		w.U64(e.readyAt)
	}
	w.U64(c.sbBase)
	for _, t := range c.drainSlots {
		w.U64(t)
	}
	for _, t := range c.loadSlots {
		w.U64(t)
	}
	w.U64(uint64(len(c.wc)))
	for _, e := range c.wc {
		w.U64(e.line)
		w.U64(e.mask)
	}
	w.U64(c.cleanBarrier)
	w.U64(uint64(len(c.fnStack)))
	for _, s := range c.fnStack {
		w.String(s)
	}
	w.U64(c.stats.Loads)
	w.U64(c.stats.Stores)
	w.U64(c.stats.NTStores)
	w.U64(c.stats.Fences)
	w.U64(c.stats.Atomics)
	w.U64(c.stats.Prestores)
	w.U64(c.stats.LoadL1Hits)
	w.U64(c.stats.LoadL2Hits)
	w.U64(c.stats.LoadLLCHits)
	w.U64(c.stats.LoadMemFills)
	w.U64(c.stats.SBForwards)
	w.U64(c.stats.Prefetches)
	w.U64(c.stats.FenceStall)
	w.U64(c.stats.SBStall)
	// scratch is a Memcpy bounce buffer, dead between calls; not state.
}

// restoreState overwrites the core's mutable state from r.
func (c *Core) restoreState(r *snap.Reader) error {
	r.Section("CORE")
	c.now = r.U64()
	c.instr = r.U64()
	if err := c.l1.RestoreState(r); err != nil {
		return err
	}
	hasL2 := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if hasL2 != (c.l2 != nil) {
		return fmt.Errorf("sim: core %d: snapshot L2 presence does not match machine", c.id)
	}
	if c.l2 != nil {
		if err := c.l2.RestoreState(r); err != nil {
			return err
		}
	}
	n := r.U64()
	c.sb = c.sb[:0]
	c.sbHead = 0
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		e := sbEntry{
			line:    r.U64(),
			started: r.Bool(),
			cleaned: r.Bool(),
			issued:  r.U64(),
			readyAt: r.U64(),
		}
		if e.line == ^uint64(0) {
			return fmt.Errorf("sim: core %d: bad store-buffer line %#x", c.id, e.line)
		}
		c.sb = append(c.sb, e)
	}
	c.sbBase = r.U64()
	c.sbRebuildIndex()
	for i := range c.drainSlots {
		c.drainSlots[i] = r.U64()
	}
	for i := range c.loadSlots {
		c.loadSlots[i] = r.U64()
	}
	nwc := r.U64()
	c.wc = c.wc[:0]
	for i := uint64(0); i < nwc && r.Err() == nil; i++ {
		c.wc = append(c.wc, wcEntry{line: r.U64(), mask: r.U64()})
	}
	c.cleanBarrier = r.U64()
	nfn := r.U64()
	c.fnStack = c.fnStack[:0]
	for i := uint64(0); i < nfn && r.Err() == nil; i++ {
		c.fnStack = append(c.fnStack, r.String())
	}
	c.stats.Loads = r.U64()
	c.stats.Stores = r.U64()
	c.stats.NTStores = r.U64()
	c.stats.Fences = r.U64()
	c.stats.Atomics = r.U64()
	c.stats.Prestores = r.U64()
	c.stats.LoadL1Hits = r.U64()
	c.stats.LoadL2Hits = r.U64()
	c.stats.LoadLLCHits = r.U64()
	c.stats.LoadMemFills = r.U64()
	c.stats.SBForwards = r.U64()
	c.stats.Prefetches = r.U64()
	c.stats.FenceStall = r.U64()
	c.stats.SBStall = r.U64()
	return r.Err()
}

// snapshotState serializes the write-back queue. In-flight entries are
// written sorted by line address, independent of the flat map's slot
// layout; the expiry sweep in track collects all expired keys in one
// Range pass, so rebuild order cannot influence timing.
func (q *wbQueue) snapshotState(w *snap.Writer) {
	w.Section("WBQ_")
	w.U64(uint64(len(q.pending)))
	for _, t := range q.pending {
		w.U64(t)
	}
	keys := make([]uint64, 0, q.inflight.Len())
	q.inflight.Range(func(k uint64, _ uint64) bool {
		keys = append(keys, k)
		return true
	})
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.U64(uint64(len(keys)))
	for _, k := range keys {
		t, _ := q.inflight.Get(k)
		w.U64(k)
		w.U64(t)
	}
	w.U64(q.stalls)
}

// restoreState overwrites the write-back queue's state from r, sizing
// the in-flight table once from the decoded count. In-flight lines must
// be strictly ascending, as snapshotState writes them.
func (q *wbQueue) restoreState(r *snap.Reader) error {
	r.Section("WBQ_")
	n := r.U64()
	q.pending = q.pending[:0]
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		q.pending = append(q.pending, r.U64())
	}
	ni := r.Count(8 + 8) // line, accept time
	q.inflight = flatmap.New[units.Cycles](ni)
	for i, prev := 0, uint64(0); i < ni && r.Err() == nil; i++ {
		k, t := r.U64(), r.U64()
		if r.Err() != nil {
			break
		}
		if k == ^uint64(0) || (i > 0 && k <= prev) {
			return fmt.Errorf("sim: write-back queue line %#x out of order", k)
		}
		prev = k
		q.inflight.Put(k, t)
	}
	q.stalls = r.U64()
	return r.Err()
}

// Checkpoint packages a machine snapshot with its provenance and an
// opaque workload annex (host-side state such as allocator cursors that
// lives outside the simulated memory). Checkpoints are what the warm-
// state forking layers store and exchange.
type Checkpoint struct {
	// Build is the producing build's version string. Consumers reject
	// checkpoints from other builds: simulator behaviour may have
	// changed, and a stale warm state would silently skew results.
	Build string
	// ConfigHash is the producing machine's ConfigHash, duplicated from
	// the machine payload so stores can filter without decoding it.
	ConfigHash string
	// Machine is the Machine.Snapshot payload.
	Machine []byte
	// Annex carries workload host-state, opaque to the sim layer.
	Annex []byte
}

// NewCheckpoint snapshots m and wraps it with provenance and the given
// workload annex.
func (m *Machine) NewCheckpoint(build string, annex []byte) (*Checkpoint, error) {
	data, err := m.Snapshot()
	if err != nil {
		return nil, err
	}
	return &Checkpoint{Build: build, ConfigHash: m.ConfigHash(), Machine: data, Annex: annex}, nil
}

// Encode serializes the checkpoint.
func (c *Checkpoint) Encode() []byte {
	w := snap.NewWriter()
	w.Raw([]byte(checkpointMagic))
	w.U64(checkpointVersion)
	w.String(c.Build)
	w.String(c.ConfigHash)
	w.Bytes(c.Machine)
	w.Bytes(c.Annex)
	return w.Finish()
}

// DecodeCheckpoint parses a checkpoint envelope. The machine payload is
// not validated here; Restore does that against a concrete machine.
// Machine aliases data rather than copying it, and a machine restored
// from it shares data's pages copy-on-write, so data must never be
// modified afterwards; Annex is a copy.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	r := snap.NewReader(data)
	var magic [4]byte
	r.Raw(magic[:])
	if r.Err() == nil && string(magic[:]) != checkpointMagic {
		return nil, fmt.Errorf("sim: not a checkpoint (magic %q)", magic)
	}
	if v := r.U64(); r.Err() == nil && v != checkpointVersion {
		return nil, fmt.Errorf("sim: unsupported checkpoint version %d (want %d)", v, checkpointVersion)
	}
	c := &Checkpoint{Build: r.String(), ConfigHash: r.String()}
	c.Machine = r.Bytes()
	c.Annex = append([]byte(nil), r.Bytes()...)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

// Check reports whether the checkpoint's machine payload was written
// by this build's snapshot format for a machine configured like m: its
// magic, version and config hash match. It reads only the payload's
// header and changes nothing, so a caller can treat a failure as a miss
// before it touches any state; Restore runs the same checks first.
func (c *Checkpoint) Check(m *Machine) error {
	return m.readHeader(snap.NewReader(c.Machine))
}

// Restore applies the checkpoint's machine payload to m. The payload's
// config hash is verified against m before any state changes; on a
// decode error partway through, m is undefined and must be discarded.
func (c *Checkpoint) Restore(m *Machine) error {
	return m.RestoreSnapshot(c.Machine)
}
