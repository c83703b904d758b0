package dirtbuster

import (
	"testing"

	"prestores/internal/sim"
	"prestores/internal/telemetry"
)

// TestTelemetryLineStatsAgree pins the telemetry recorder's per-line
// attribution to DirtBuster's step-3 analysis on the same workload.
//
// Both keep each line's reuse in a core.LineReuse and update it by its
// one rule, so what this checks is the two event feeds: the recorder's
// op hook and DirtBuster's instrumentation must hand each line the same
// writes and reads at the same instruction counts. The one argument
// that differs is DirtBuster's streak exclusion (a write continuing the
// same sequentiality context is not a rewrite). The workload below
// writes single 8-byte words at a 256-byte stride, so no write ever
// lands within SeqGap of a context's end: every context stays an
// unpromoted singleton (ctx id 0) and the exclusion never fires. The
// two must then produce identical rewrite/re-read counts and distance
// sums per line.
func TestTelemetryLineStatsAgree(t *testing.T) {
	const (
		fn     = "agree.writer"
		stride = 256 // > SeqGap + line size: no context extension possible
		nLines = 40
	)
	body := func(m *sim.Machine) {
		c := m.Core(0)
		c.PushFunc(fn)
		for pass := uint64(0); pass < 3; pass++ {
			for i := uint64(0); i < nLines; i++ {
				c.WriteU64(base+i*stride, pass)
			}
			for i := uint64(0); i < nLines; i += 2 {
				c.ReadU64(base + i*stride)
			}
		}
		c.PopFunc()
	}

	// DirtBuster's step-2/3 instrumentation, as Analyze wires it.
	cfg := Config{}
	cfg.fillDefaults()
	an := &analysis{cfg: cfg, fns: map[string]*fnState{
		fn: {name: fn, buckets: make(map[uint64]*bucketAgg)},
	}}
	m1 := sim.MachineA()
	an.lineSize = m1.LineSize()
	an.cores = make([]coreState, m1.Cores())
	m1.SetHook(an.hook)
	body(m1)
	m1.SetHook(nil)
	an.finish()

	// The telemetry recorder on a fresh machine running the same body:
	// both machines are deterministic, so per-core instruction counts —
	// the distance unit — line up exactly.
	rec := telemetry.New(telemetry.Config{LineReport: true})
	m2 := sim.MachineA()
	rec.Attach(m2)
	body(m2)

	rep := rec.LineReport(0)
	stats := map[uint64]telemetry.LineStat{}
	for _, s := range rep.Lines {
		stats[s.Addr] = s
	}

	dbLines := 0
	an.lines.Ascend(func(line uint64, li lineInfo) bool {
		dbLines++
		s, ok := stats[line]
		if !ok {
			t.Errorf("line %#x tracked by DirtBuster but not telemetry", line)
			return true
		}
		if li.ctxID != 0 {
			t.Errorf("line %#x got context %d; the workload must not form sequential contexts", line, li.ctxID)
		}
		if s.Reuse != li.Reuse {
			t.Errorf("line %#x: telemetry %+v != dirtbuster %+v", line, s.Reuse, li.Reuse)
		}
		if s.Writes != li.Rewrites+1 {
			t.Errorf("line %#x writes = %d, want rewrites+1 = %d", line, s.Writes, li.Rewrites+1)
		}
		return true
	})
	if dbLines != nLines {
		t.Fatalf("DirtBuster tracked %d lines, want %d", dbLines, nLines)
	}
	if len(stats) != dbLines {
		t.Fatalf("telemetry tracked %d lines, DirtBuster %d", len(stats), dbLines)
	}
	// Sanity: the workload actually exercises the counters.
	hot := stats[base]
	if hot.Rewrites != 2 || hot.Rereads == 0 {
		t.Fatalf("workload too weak: line %#x rewrites=%d rereads=%d", base, hot.Rewrites, hot.Rereads)
	}
}
