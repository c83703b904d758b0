package dirtbuster

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"prestores/internal/core"
	"prestores/internal/units"
)

// Report is DirtBuster's output for one application.
type Report struct {
	App            string
	Config         Config
	StoreShare     float64 // fraction of sampled memory ops that store
	WriteIntensive bool
	Functions      []FuncReport
}

// FuncReport is the per-function analysis, rendered in the paper's
// format (§7.2.1):
//
//	Location: <fn>
//	Perc. Seq. Writes: 50%
//	Size: 16.2MB - 10% - re-read inf - re-write inf
//	Pre-store choice: clean
type FuncReport struct {
	Name       string
	StoreShare float64
	Callchains []string

	SeqWriteShare float64
	Contexts      []ContextClass

	WritesBeforeFence float64 // share of writes within NearFence of a fence
	MinFenceDist      uint64
	HasFences         bool

	Choice core.Choice
	Reason string
}

// ContextClass summarizes the sequential contexts of one size class.
type ContextClass struct {
	Size        uint64  // size class in bytes
	WriteShare  float64 // share of the function's sequential writes
	RereadDist  float64 // average instructions write->re-read; +Inf if never
	RewriteDist float64 // average instructions write->re-write; +Inf if never
}

// report derives the FuncReport (including the recommendation) from the
// accumulated state.
func (st *fnState) report(cfg Config) FuncReport {
	fr := FuncReport{
		Name:       st.name,
		StoreShare: st.storeShare,
		Callchains: st.callchains,
	}
	if st.totalWrites > 0 {
		fr.SeqWriteShare = float64(st.seqWrites) / float64(st.totalWrites)
	}
	if st.fenceSamples > 0 {
		fr.HasFences = true
		fr.MinFenceDist = st.minFenceDist
		fr.WritesBeforeFence = float64(st.writesBeforeFence) / float64(st.totalWrites)
	}

	var totalSeq uint64
	for _, b := range st.buckets {
		totalSeq += b.writes
	}
	for size, b := range st.buckets {
		cc := ContextClass{Size: size, RereadDist: math.Inf(1), RewriteDist: math.Inf(1)}
		if totalSeq > 0 {
			cc.WriteShare = float64(b.writes) / float64(totalSeq)
		}
		if b.Rereads > 0 {
			cc.RereadDist = b.AvgRereadDist()
		}
		if b.Rewrites > 0 {
			cc.RewriteDist = b.AvgRewriteDist()
		}
		fr.Contexts = append(fr.Contexts, cc)
	}
	sort.Slice(fr.Contexts, func(i, j int) bool {
		return fr.Contexts[i].WriteShare > fr.Contexts[j].WriteShare
	})

	// Decision (§6.2.3), taken per size class: the same templated
	// function often writes both huge never-reused tensors and small
	// immediately-re-read ones (the paper's TensorFlow case), and a
	// single class with near re-use vetoes the cache-bypassing options.
	sequential := fr.SeqWriteShare >= cfg.MinSeqShare
	fenceBound := fr.HasFences && fr.WritesBeforeFence >= cfg.MinFenceShare
	eligible := sequential || fenceBound

	// Re-use is judged on *near* re-use counts rather than averaged
	// distances: the same size class often mixes data re-read two
	// instructions later with data re-read a layer later, and an
	// average would hide the near fraction that makes cleaning or
	// demoting worthwhile.
	var rewritten, reread bool
	for _, b := range st.buckets {
		if st.seqWrites == 0 || b.writes*50 < st.seqWrites {
			continue // insignificant class (<2% of sequential writes)
		}
		if b.NearRewrites*8 >= b.writes {
			rewritten = true
		}
		// Re-reads often touch only one line of a written region
		// (Listing 1 re-reads a single field), so this gate is
		// deliberately permissive.
		if b.NearRereads*32 >= b.writes {
			reread = true
		}
	}

	fr.Choice = core.Decide(eligible, rewritten, reread)
	switch {
	case !eligible:
		fr.Reason = "writes are neither sequential nor near a fence"
	case rewritten:
		fr.Reason = "a significant share of the data is re-written soon; keep it cached but publish early"
	case reread:
		fr.Reason = "a significant share of the data is re-read soon after being written; write back but keep cached"
	default:
		fr.Reason = "data neither re-read nor re-written; bypass the cache"
	}
	return fr
}

// Advice returns the recommendation for a function, or NoPrestore.
func (r *Report) Advice(fn string) core.Choice {
	for _, f := range r.Functions {
		if f.Name == fn {
			return f.Choice
		}
	}
	return core.NoPrestore
}

// Recommendations lists the functions with a non-trivial choice.
func (r *Report) Recommendations() []core.Advice {
	var out []core.Advice
	for _, f := range r.Functions {
		if f.Choice != core.NoPrestore {
			out = append(out, core.Advice{Function: f.Name, Choice: f.Choice, Reason: f.Reason})
		}
	}
	return out
}

// Render prints the report in the paper's style.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DirtBuster report for %s\n", r.App)
	fmt.Fprintf(&b, "Store share of sampled memory ops: %.1f%%", r.StoreShare*100)
	if !r.WriteIntensive {
		fmt.Fprintf(&b, " — not write-intensive; pre-stores would have no effect\n")
		return b.String()
	}
	fmt.Fprintf(&b, " — write-intensive\n")
	for _, f := range r.Functions {
		fmt.Fprintf(&b, "\nLocation: %s\n", f.Name)
		if len(f.Callchains) > 0 {
			fmt.Fprintf(&b, "Callchain: %s\n", f.Callchains[0])
		}
		fmt.Fprintf(&b, "Perc. Seq. Writes: %.0f%%\n", f.SeqWriteShare*100)
		for i, cc := range f.Contexts {
			if i == 4 || cc.WriteShare < 0.01 {
				break
			}
			fmt.Fprintf(&b, "Size: %s - %.0f%% - re-read %s - re-write %s\n",
				units.Bytes(cc.Size), cc.WriteShare*100,
				distString(cc.RereadDist), distString(cc.RewriteDist))
		}
		if f.HasFences {
			fmt.Fprintf(&b, "Writes before fence: %.0f%% (min distance %d instr)\n",
				f.WritesBeforeFence*100, f.MinFenceDist)
		}
		fmt.Fprintf(&b, "Pre-store choice: %s (%s)\n", f.Choice, f.Reason)
	}
	return b.String()
}

func distString(d float64) string {
	if math.IsInf(d, 1) || d > 1e12 {
		return "inf"
	}
	if d >= 10_000 {
		return fmt.Sprintf("%.1fK", d/1000)
	}
	return fmt.Sprintf("%.0f", d)
}
