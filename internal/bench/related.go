package bench

import (
	"context"
	"fmt"
	"io"

	"prestores/internal/scenario"
	"prestores/internal/sim"
	"prestores/internal/units"
	"prestores/internal/workloads/micro"
)

func init() {
	register(Experiment{
		ID:    "ext-prefetch",
		Title: "Extension: hardware prefetching is orthogonal to pre-storing",
		Paper: "Intro/§8: pre-fetching moves data up; it cannot fix the write-back ordering of Problem #1 — only pre-stores do",
		Run:   runPrefetchOrthogonal,
	})
	// ext-seqlog is registered as a declarative scenario spec in spec.go.
}

// runPrefetchOrthogonal runs Listing 1 with and without a next-line
// prefetcher, crossed with the clean pre-store.
func runPrefetchOrthogonal(ctx context.Context, w io.Writer, quick bool) {
	esz := uint64(1024)
	vol := fig3Volume(quick)
	scenario.Row(w, "prefetch", "mode", "cyc/op", "write amp")
	for _, depth := range []int{0, 2} {
		for _, mode := range []micro.Mode{micro.Baseline, micro.CleanPrestore} {
			if cancelled(ctx) {
				return
			}
			cfg := sim.ConfigA()
			cfg.PrefetchDepth = depth
			m := sim.NewMachine(cfg).AttachOps(ctx)
			res := micro.RunListing1(m, micro.Listing1Config{
				ElemSize: esz, Elements: int(32 * units.MiB / esz),
				Threads: 2, Iters: int(vol / esz / 2),
				Mode: mode, ReRead: true, Seed: 42,
			})
			pf := "off"
			if depth > 0 {
				pf = fmt.Sprintf("next-%d", depth)
			}
			scenario.Row(w, pf, mode.String(),
				fmt.Sprintf("%.0f", res.ElapsedPerOp), f2(res.WriteAmp))
		}
	}
	fmt.Fprintln(w, "(prefetching cannot lower the baseline's amplification; cleaning can)")
}
