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
	// Code, not a spec: a static table of device parameters; it runs no
	// workload.
	register(Experiment{
		ID:    "table1",
		Title: "Device internal read/write granularities",
		Paper: "Table 1: Intel CPU 64B, ThunderX ARM 128B, Optane PMEM 256B, CXL SSD 256-512B",
		Run:   runTable1,
	})
	// Code, not a spec: its slowdown cell is a literal 1.0x on the
	// baseline row and %.0fx on the clean row.
	register(Experiment{
		ID:    "listing3",
		Title: "Listing 3: cleaning a constantly re-written line",
		Paper: "Section 5: ~75x slowdown (ratio of memory vs cache write latency)",
		Run:   runListing3,
	})
}

func runTable1(ctx context.Context, w io.Writer, _ bool) {
	scenario.Row(w, "device", "granularity", "read lat", "machine")
	type dev struct{ machine, window string }
	rows := []dev{
		{"machine-A", sim.WindowDRAM},
		{"machine-A", sim.WindowPMEM},
		{"machine-B", sim.WindowDRAM},
		{"machine-B", sim.WindowRemote},
		{"machine-C", sim.WindowCXL},
	}
	machines := map[string]*sim.Machine{
		"machine-A": sim.MachineA().AttachOps(ctx),
		"machine-B": sim.MachineBFast().AttachOps(ctx),
		"machine-C": sim.MachineC().AttachOps(ctx),
	}
	for _, r := range rows {
		if cancelled(ctx) {
			return
		}
		d := machines[r.machine].Device(r.window)
		scenario.Row(w, d.Name(), units.Bytes(d.InternalGranularity()),
			fmt.Sprintf("%d cyc", d.ReadLatency()), r.machine)
	}
	fmt.Fprintf(w, "CPU line sizes: machine-A %dB (x86), machine-B %dB (ThunderX ARM)\n",
		machines["machine-A"].LineSize(), machines["machine-B"].LineSize())
}

func runListing3(ctx context.Context, w io.Writer, quick bool) {
	iters := 200000
	if quick {
		iters = 20000
	}
	base := runOn(ctx, sim.MachineA(), micro.RunListing3, micro.Listing3Config{Iters: iters, Mode: micro.Baseline})
	if cancelled(ctx) {
		return
	}
	clean := runOn(ctx, sim.MachineA(), micro.RunListing3, micro.Listing3Config{Iters: iters, Mode: micro.CleanPrestore})
	scenario.Row(w, "variant", "cyc/rewrite", "slowdown")
	scenario.Row(w, "baseline", fmt.Sprintf("%.1f", base.CyclesPerRew), "1.0x")
	scenario.Row(w, "clean", fmt.Sprintf("%.1f", clean.CyclesPerRew),
		fmt.Sprintf("%.0fx", clean.CyclesPerRew/base.CyclesPerRew))
}
