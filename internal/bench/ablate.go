package bench

import (
	"context"
	"fmt"
	"io"

	"prestores/internal/cache"
	"prestores/internal/memdev"
	"prestores/internal/scenario"
	"prestores/internal/sim"
	"prestores/internal/units"
	"prestores/internal/workloads/micro"
)

func init() {
	register(Experiment{
		ID:    "ablate-drain",
		Title: "Ablation: store-buffer drain mode (Problem #2's cause)",
		Paper: "DESIGN.md #1: with an eager (x86-style) drain, demote pre-stores should stop helping on Machine B",
		Run:   runAblateDrain,
	})
	register(Experiment{
		ID:    "ablate-llc",
		Title: "Ablation: LLC replacement policy (Problem #1's cause)",
		Paper: "DESIGN.md #2: strict LRU should lower the baseline's write amplification vs QLRU/random",
		Run:   runAblateLLC,
	})
	register(Experiment{
		ID:    "ablate-dir",
		Title: "Ablation: directory location (on-device vs on-die)",
		Paper: "DESIGN.md #4: an on-die directory removes the state-change round trip from both columns; the residual demote win is the overlapped data read",
		Run:   runAblateDir,
	})
	register(Experiment{
		ID:    "ablate-pmembuf",
		Title: "Ablation: PMEM internal write-buffer capacity",
		Paper: "DESIGN.md #3: a smaller coalescing window raises baseline amplification; cleaning stays at 1.0",
		Run:   runAblatePMEMBuf,
	})
}

func runAblateDrain(ctx context.Context, w io.Writer, quick bool) {
	iters := 20000
	if quick {
		iters = 5000
	}
	scenario.Row(w, "drain", "reads", "base cyc", "demote cyc", "improvement")
	for _, drain := range []sim.DrainMode{sim.DrainLazy, sim.DrainEager} {
		for _, n := range []int{20, 80} {
			if cancelled(ctx) {
				return
			}
			mk := func() *sim.Machine {
				cfg := sim.ConfigB(sim.MachineBConfig{FPGALatency: 60, FPGABandwidth: 10e9})
				cfg.Drain = drain
				return sim.NewMachine(cfg).AttachOps(ctx)
			}
			l2 := micro.Listing2Config{Elements: 100000, Reads: n, Iters: iters, Seed: 7}
			l2.Mode = micro.Baseline
			base := micro.RunListing2(mk(), l2)
			l2.Mode = micro.DemotePrestore
			dem := micro.RunListing2(mk(), l2)
			scenario.Row(w, drain.String(), fmt.Sprint(n),
				fmt.Sprintf("%.0f", base.CyclesPerIter),
				fmt.Sprintf("%.0f", dem.CyclesPerIter),
				pct(base.CyclesPerIter/dem.CyclesPerIter))
		}
	}
}

func runAblateLLC(ctx context.Context, w io.Writer, quick bool) {
	esz := uint64(1024)
	vol := fig3Volume(quick)
	scenario.Row(w, "llc policy", "base amp", "clean amp", "speedup")
	for _, pol := range []cache.Policy{cache.QLRU, cache.PLRU, cache.LRU, cache.Random, cache.SRRIP} {
		if cancelled(ctx) {
			return
		}
		mk := func() *sim.Machine {
			cfg := sim.ConfigA()
			cfg.LLC.Policy = pol
			return sim.NewMachine(cfg).AttachOps(ctx)
		}
		l1 := micro.Listing1Config{
			ElemSize: esz, Elements: int(32 * units.MiB / esz),
			Threads: 2, Iters: int(vol / esz / 2), ReRead: true, Seed: 42,
		}
		l1.Mode = micro.Baseline
		base := micro.RunListing1(mk(), l1)
		l1.Mode = micro.CleanPrestore
		clean := micro.RunListing1(mk(), l1)
		scenario.Row(w, pol.String(), f2(base.WriteAmp), f2(clean.WriteAmp),
			fmt.Sprintf("%.2fx", float64(base.Elapsed)/float64(clean.Elapsed)))
	}
}

func runAblateDir(ctx context.Context, w io.Writer, quick bool) {
	iters := 20000
	if quick {
		iters = 5000
	}
	scenario.Row(w, "directory", "base cyc", "demote cyc", "improvement")
	for _, onDevice := range []bool{true, false} {
		if cancelled(ctx) {
			return
		}
		mk := func() *sim.Machine {
			cfg := sim.ConfigB(sim.MachineBConfig{FPGALatency: 200, FPGABandwidth: 1.5e9})
			cfg.DirOnDevice = onDevice
			return sim.NewMachine(cfg).AttachOps(ctx)
		}
		l2 := micro.Listing2Config{Elements: 100000, Reads: 80, Iters: iters, Seed: 7}
		l2.Mode = micro.Baseline
		base := micro.RunListing2(mk(), l2)
		l2.Mode = micro.DemotePrestore
		dem := micro.RunListing2(mk(), l2)
		loc := "on-device"
		if !onDevice {
			loc = "on-die"
		}
		scenario.Row(w, loc,
			fmt.Sprintf("%.0f", base.CyclesPerIter),
			fmt.Sprintf("%.0f", dem.CyclesPerIter),
			pct(base.CyclesPerIter/dem.CyclesPerIter))
	}
}

func runAblatePMEMBuf(ctx context.Context, w io.Writer, quick bool) {
	esz := uint64(1024)
	vol := fig3Volume(quick)
	scenario.Row(w, "buf entries", "base amp", "clean amp")
	for _, entries := range []int{8, 32, 128} {
		if cancelled(ctx) {
			return
		}
		mk := func() *sim.Machine {
			cfg := sim.ConfigA()
			for i := range cfg.Windows {
				if cfg.Windows[i].Name == sim.WindowPMEM {
					cfg.Windows[i].Device = newPMEMWithBuffer(entries)
				}
			}
			return sim.NewMachine(cfg).AttachOps(ctx)
		}
		l1 := micro.Listing1Config{
			ElemSize: esz, Elements: int(32 * units.MiB / esz),
			Threads: 2, Iters: int(vol / esz / 2), ReRead: true, Seed: 42,
		}
		l1.Mode = micro.Baseline
		base := micro.RunListing1(mk(), l1)
		l1.Mode = micro.CleanPrestore
		clean := micro.RunListing1(mk(), l1)
		scenario.Row(w, fmt.Sprint(entries), f2(base.WriteAmp), f2(clean.WriteAmp))
	}
}

// newPMEMWithBuffer builds Machine A's Optane device with an explicit
// internal buffer capacity.
func newPMEMWithBuffer(entries int) memdev.Device {
	return memdev.NewPMEM(memdev.Config{
		Name:          "optane",
		Clock:         2100 * units.MHz,
		BufferEntries: entries,
	})
}
