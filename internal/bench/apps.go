package bench

import (
	"context"
	"fmt"
	"io"

	"prestores/internal/scenario"
	"prestores/internal/sim"
	"prestores/internal/workloads/nas"
)

func init() {
	// Code, not a spec: per-kernel quick scales and a checksum-equality
	// column.
	register(Experiment{
		ID:    "fig9",
		Title: "NAS kernels on Machine A: normalized runtime with clean pre-stores",
		Paper: "Fig 9: MG/FT/SP/UA/BT up to 40% faster; lower is better",
		Run:   runFig9,
	})
	// Code, not a spec: three sectioned tables, each with its own
	// machine, kernels and columns.
	register(Experiment{
		ID:    "overhead",
		Title: "Pre-store overhead when not needed (Section 7.4)",
		Paper: "NAS/tensor cleans on Machine B <=0.3% overhead; FT fftz2 manual clean ~3x slowdown; IS rank: no effect",
		Run:   runOverhead,
	})
}

func nasKernels(quick bool) []nas.Kernel {
	if quick {
		return []nas.Kernel{nas.MG, nas.BT}
	}
	return []nas.Kernel{nas.MG, nas.FT, nas.SP, nas.UA, nas.BT, nas.IS}
}

func runFig9(ctx context.Context, w io.Writer, quick bool) {
	scenario.Row(w, "kernel", "base amp", "clean amp", "norm runtime", "cksum ok")
	for _, k := range nasKernels(quick) {
		if cancelled(ctx) {
			return
		}
		base, clean := nasPair(ctx, sim.MachineA, nasConfig(k, quick), nas.Clean)
		scenario.Row(w, string(k), f2(base.WriteAmp), f2(clean.WriteAmp),
			f2(float64(clean.Elapsed)/float64(base.Elapsed)),
			fmt.Sprint(base.Checksum == clean.Checksum))
	}
}

// nasConfig is one iteration of kernel k with seed 3; quick mode
// shrinks each kernel for smoke runs.
func nasConfig(k nas.Kernel, quick bool) nas.Config {
	cfg := nas.Config{Kernel: k, Iters: 1, Seed: 3}
	if !quick {
		return cfg
	}
	switch k {
	case nas.MG, nas.SP:
		cfg.Scale = 64
	case nas.BT:
		cfg.Scale = 40
	case nas.FT:
		cfg.Scale = 32
	case nas.UA:
		cfg.Scale = 1 << 14
	case nas.IS:
		cfg.Scale = 1 << 17
	}
	return cfg
}

// nasPair runs cfg's kernel twice, each on a fresh machine from
// newMachine: as the baseline, then in mode.
func nasPair(ctx context.Context, newMachine func() *sim.Machine, cfg nas.Config, mode nas.Mode) (base, other nas.Result) {
	cfg.Mode = nas.Baseline
	base = runOn(ctx, newMachine(), nas.Run, cfg)
	cfg.Mode = mode
	return base, runOn(ctx, newMachine(), nas.Run, cfg)
}

func runOverhead(ctx context.Context, w io.Writer, quick bool) {
	// 1. DirtBuster-recommended cleans on Machine B, where neither
	// mechanism applies (no write amplification on the FPGA, NAS uses
	// no fences): overhead should be negligible.
	fmt.Fprintln(w, "-- recommended pre-stores on the wrong machine (B-fast): overhead --")
	scenario.Row(w, "kernel", "base Mcyc", "clean Mcyc", "overhead")
	for _, k := range []nas.Kernel{nas.MG, nas.SP} {
		if cancelled(ctx) {
			return
		}
		cfg := nasConfig(k, quick)
		cfg.Window = sim.WindowRemote
		base, clean := nasPair(ctx, sim.MachineBFast, cfg, nas.Clean)
		scenario.Row(w, string(k),
			fmt.Sprintf("%.1f", float64(base.Elapsed)/1e6),
			fmt.Sprintf("%.1f", float64(clean.Elapsed)/1e6),
			pct(float64(clean.Elapsed)/float64(base.Elapsed)))
	}

	// 2. FT's fftz2: manually cleaning the hot in-cache scratch that
	// DirtBuster refuses to recommend (write-back per rewrite).
	if cancelled(ctx) {
		return
	}
	fmt.Fprintln(w, "-- FT fftz2: manual clean of the hot scratch (the trap) --")
	ftBase, ftHot := nasPair(ctx, sim.MachineA, nasConfig(nas.FT, quick), nas.CleanHot)
	scenario.Row(w, "variant", "Mcyc", "slowdown")
	scenario.Row(w, "baseline", fmt.Sprintf("%.1f", float64(ftBase.Elapsed)/1e6), "1.0x")
	scenario.Row(w, "clean fftz2", fmt.Sprintf("%.1f", float64(ftHot.Elapsed)/1e6),
		fmt.Sprintf("%.2fx", float64(ftHot.Elapsed)/float64(ftBase.Elapsed)))

	// 3. IS rank: small random writes, neither re-read nor sequential;
	// a clean is useless but also (nearly) free.
	if cancelled(ctx) {
		return
	}
	fmt.Fprintln(w, "-- IS rank: manual clean of random small writes (no effect expected) --")
	isBase, isClean := nasPair(ctx, sim.MachineA, nasConfig(nas.IS, quick), nas.Clean)
	scenario.Row(w, "variant", "Mcyc", "delta")
	scenario.Row(w, "baseline", fmt.Sprintf("%.1f", float64(isBase.Elapsed)/1e6), "")
	scenario.Row(w, "clean", fmt.Sprintf("%.1f", float64(isClean.Elapsed)/1e6),
		pct(float64(isClean.Elapsed)/float64(isBase.Elapsed)))
}
