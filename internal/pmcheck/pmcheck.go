// Package pmcheck is a trace-driven persistence checker in the spirit
// of the tools the paper's related work surveys (PMTest, Mumak): it
// finds stores to persistent memory that are not covered by a clean
// pre-store (clwb) and an ordering point before the program declares a
// durability boundary.
//
// The paper uses cleaning instructions for *performance*; persistent
// programming uses the same instructions for *correctness*. Both
// workflows share the instrumentation substrate, so the checker
// streams the same chunked operation traces DirtBuster analyzes, one
// chunk at a time.
//
// Model: a store to the checked range is "volatile" until a clean
// covering its line is issued and a subsequent fence (or atomic)
// retires the clean. A Commit marker (any atomic or fence the caller
// designates through MarkCommit, or every fence when Strict) asserts
// that all previously written lines are persistent.
package pmcheck

import (
	"fmt"
	"sort"
	"strings"

	"prestores/internal/sim"
	"prestores/internal/trace"
	"prestores/internal/units"
)

// Violation reports one line that was not durably persisted at a
// commit point.
type Violation struct {
	Line     uint64 // line base address
	StoreFn  string // function that performed the unpersisted store
	CommitFn string // function executing at the commit point
	Instr    uint64 // commit's instruction count on its core
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("line %#x written in %s not persisted at commit in %s (instr %d)",
		v.Line, v.StoreFn, v.CommitFn, v.Instr)
}

// The default persistent window, used when a caller names no range:
// machine A's PMEM window.
const (
	DefaultBase = 1 << 40
	DefaultSize = 256 << 30
)

// Config parameterizes a check.
type Config struct {
	// Range restricts checking to [Base, Base+Size) — normally the
	// persistent window. Zero Size checks everything.
	Base, Size uint64
	// LineSize of the traced machine.
	LineSize uint64
	// CommitFn: a fence/atomic executed inside a function with this
	// annotation is a durability boundary. Empty means every atomic is
	// a commit (locks and lock-free publishes usually are).
	CommitFn string
	// MaxViolations caps the report (0 = 64).
	MaxViolations int
}

// lineState tracks a line's persistence progress.
type lineState int

const (
	stateDirty   lineState = iota // stored, not cleaned
	statePending                  // cleaned, awaiting ordering fence
	stateDurable                  // cleaned + fenced
)

// Result summarizes a check.
type Result struct {
	Violations []Violation
	// StoresChecked counts line-stores to the checked range.
	StoresChecked uint64
	// Commits counts durability boundaries encountered.
	Commits uint64
}

// Ok reports whether no violations were found.
func (r Result) Ok() bool { return len(r.Violations) == 0 }

// Render prints the summary line and one line per violation.
func (r Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pmcheck: %d line-stores checked, %d commits, %d violations\n",
		r.StoresChecked, r.Commits, len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintln(&b, "  ", v)
	}
	return b.String()
}

// Check streams the trace's chunks in order and reports
// unpersisted-at-commit lines. It fails only if reading a chunk does.
func Check(it trace.ChunkIter, cfg Config) (Result, error) {
	if cfg.LineSize == 0 {
		cfg.LineSize = 64
	}
	if cfg.MaxViolations == 0 {
		cfg.MaxViolations = 64
	}
	inRange := func(addr uint64) bool {
		if cfg.Size == 0 {
			return true
		}
		return addr >= cfg.Base && addr < cfg.Base+cfg.Size
	}

	type lineInfo struct {
		state lineState
		fn    string
	}
	lines := map[uint64]*lineInfo{}
	var res Result

	step := func(r trace.Record, fn string) {
		switch r.Kind {
		case sim.OpStore, sim.OpStoreNT:
			state := stateDirty
			if r.Kind == sim.OpStoreNT {
				// Non-temporal stores go straight toward memory; they
				// still need an ordering fence.
				state = statePending
			}
			for l := units.AlignDown(r.Addr, cfg.LineSize); l < r.Addr+r.Size; l += cfg.LineSize {
				if !inRange(l) {
					continue
				}
				res.StoresChecked++
				li := lines[l]
				if li == nil {
					li = &lineInfo{}
					lines[l] = li
				}
				li.state = state
				li.fn = fn
			}
		case sim.OpPrestoreClean:
			for l := units.AlignDown(r.Addr, cfg.LineSize); l < r.Addr+r.Size; l += cfg.LineSize {
				if li := lines[l]; li != nil && li.state == stateDirty {
					li.state = statePending
				}
			}
		case sim.OpFence, sim.OpAtomic:
			// Ordering point: pending cleans retire.
			for _, li := range lines {
				if li.state == statePending {
					li.state = stateDurable
				}
			}
			isCommit := r.Kind == sim.OpAtomic || cfg.CommitFn != ""
			if cfg.CommitFn != "" && fn != cfg.CommitFn {
				isCommit = false
			}
			if !isCommit {
				return
			}
			res.Commits++
			// Every line written before the commit must be durable.
			var bad []uint64
			for l, li := range lines {
				if li.state != stateDurable {
					bad = append(bad, l)
				}
			}
			sort.Slice(bad, func(i, j int) bool { return bad[i] < bad[j] })
			for _, l := range bad {
				if len(res.Violations) >= cfg.MaxViolations {
					break
				}
				res.Violations = append(res.Violations, Violation{
					Line:     l,
					StoreFn:  lines[l].fn,
					CommitFn: fn,
					Instr:    r.Instr,
				})
			}
			// Lines reported once per commit epoch.
			for _, l := range bad {
				delete(lines, l)
			}
		}
	}
	err := trace.ForEach(it, func(c *trace.Chunk) error {
		for _, r := range c.Records {
			step(r, c.FuncName(r.Fn))
		}
		return nil
	})
	return res, err
}
