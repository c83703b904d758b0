package core

// DirtBuster's step 3 (paper §6.2.3) judges a written line by how soon
// it is re-written and re-read. Distances are instruction counts
// between a line's last write and the next touch; a re-write or re-read
// within the threshold counts as near.
const (
	// NearRewrite is the default re-write distance under which data
	// counts as re-written (pre-store choice demote).
	NearRewrite = 4000
	// NearReread is the default re-read distance under which data
	// counts as re-read (pre-store choice clean).
	NearReread = 100_000
)

// Reuse counts a line's (or a set of lines') re-writes and re-reads.
// The distance sums are in instructions.
type Reuse struct {
	// Rewrites counts writes to an already-written line.
	Rewrites       uint64 `json:"rewrites"`
	RewriteDistSum uint64 `json:"rewrite_dist_sum"`
	NearRewrites   uint64 `json:"near_rewrites"`
	Rereads        uint64 `json:"rereads"`
	RereadDistSum  uint64 `json:"reread_dist_sum"`
	NearRereads    uint64 `json:"near_rereads"`
}

// Add sums o into u.
func (u *Reuse) Add(o Reuse) {
	u.Rewrites += o.Rewrites
	u.RewriteDistSum += o.RewriteDistSum
	u.NearRewrites += o.NearRewrites
	u.Rereads += o.Rereads
	u.RereadDistSum += o.RereadDistSum
	u.NearRereads += o.NearRereads
}

// AvgRewriteDist returns the mean re-write distance in instructions.
func (u Reuse) AvgRewriteDist() float64 {
	if u.Rewrites == 0 {
		return 0
	}
	return float64(u.RewriteDistSum) / float64(u.Rewrites)
}

// AvgRereadDist returns the mean re-read distance in instructions.
func (u Reuse) AvgRereadDist() float64 {
	if u.Rereads == 0 {
		return 0
	}
	return float64(u.RereadDistSum) / float64(u.Rereads)
}

// LineReuse is one cache line's reuse record: its counters and the
// instruction count of its last write.
type LineReuse struct {
	Reuse
	LastWrite uint64
	Written   bool
}

// Write records a write at instruction count instr. It counts a
// re-write, near when the distance is at most near, only when rewrite
// is set and the line was written before. Distances are per-core
// instruction counts: a touch from another core (a smaller count)
// carries no distance. The write becomes the line's last either way.
func (l *LineReuse) Write(instr, near uint64, rewrite bool) {
	if rewrite && l.Written && instr >= l.LastWrite {
		d := instr - l.LastWrite
		l.Rewrites++
		l.RewriteDistSum += d
		if d <= near {
			l.NearRewrites++
		}
	}
	l.Written = true
	l.LastWrite = instr
}

// Read records a read at instruction count instr: a re-read of the
// last write, near when the distance is at most near. A read of a line
// never written, or from another core, counts nothing.
func (l *LineReuse) Read(instr, near uint64) {
	if l.Written && instr >= l.LastWrite {
		d := instr - l.LastWrite
		l.Rereads++
		l.RereadDistSum += d
		if d <= near {
			l.NearRereads++
		}
	}
}
