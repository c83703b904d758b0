package bench

import (
	"context"
	"fmt"
	"io"

	"prestores/internal/scenario"
	"prestores/internal/sim"
	"prestores/internal/workloads/nas"
	"prestores/internal/workloads/tensor"
)

func init() {
	register(Experiment{
		ID:    "fig7",
		Title: "TensorFlow training proxy on Machine A: clean vs skip, batch-size sweep",
		Paper: "Fig 7: clean +47% at batch 1 dropping to +20% at large batches; skip loses ~20%",
		Run:   runFig7,
	})
	register(Experiment{
		ID:    "fig8",
		Title: "TensorFlow training proxy on Machine A: write amplification",
		Paper: "Fig 8: cleaning lowers amplification from ~3.7x to ~2.7x (only one function patched)",
		Run:   runFig8,
	})
	register(Experiment{
		ID:    "fig9",
		Title: "NAS kernels on Machine A: normalized runtime with clean pre-stores",
		Paper: "Fig 9: MG/FT/SP/UA/BT up to 40% faster; lower is better",
		Run:   runFig9,
	})
	register(Experiment{
		ID:    "overhead",
		Title: "Pre-store overhead when not needed (Section 7.4)",
		Paper: "NAS/tensor cleans on Machine B <=0.3% overhead; FT fftz2 manual clean ~3x slowdown; IS rank: no effect",
		Run:   runOverhead,
	})
}

func fig7Batches(quick bool) []int {
	if quick {
		return []int{1, 32}
	}
	return []int{1, 8, 32, 64, 128, 250}
}

func trainCfg(batch int, mode tensor.Mode, quick bool) tensor.TrainConfig {
	feat := 2048
	steps := 2
	if quick {
		feat = 1024
		steps = 1
	}
	return tensor.TrainConfig{BatchSize: batch, Features: feat, Steps: steps, Mode: mode}
}

func runFig7(ctx context.Context, w io.Writer, quick bool) {
	scenario.Row(w, "batch", "base Mcyc", "clean gain", "skip gain")
	for _, batch := range fig7Batches(quick) {
		if cancelled(ctx) {
			return
		}
		base := tensor.Train(sim.MachineA().AttachOps(ctx), trainCfg(batch, tensor.Baseline, quick))
		clean := tensor.Train(sim.MachineA().AttachOps(ctx), trainCfg(batch, tensor.Clean, quick))
		skip := tensor.Train(sim.MachineA().AttachOps(ctx), trainCfg(batch, tensor.Skip, quick))
		scenario.Row(w, fmt.Sprint(batch),
			fmt.Sprintf("%.1f", float64(base.Elapsed)/1e6),
			pct(float64(base.Elapsed)/float64(clean.Elapsed)),
			pct(float64(base.Elapsed)/float64(skip.Elapsed)))
	}
}

func runFig8(ctx context.Context, w io.Writer, quick bool) {
	scenario.Row(w, "batch", "base amp", "clean amp")
	for _, batch := range fig7Batches(quick) {
		if cancelled(ctx) {
			return
		}
		base := tensor.Train(sim.MachineA().AttachOps(ctx), trainCfg(batch, tensor.Baseline, quick))
		clean := tensor.Train(sim.MachineA().AttachOps(ctx), trainCfg(batch, tensor.Clean, quick))
		scenario.Row(w, fmt.Sprint(batch), f2(base.WriteAmp), f2(clean.WriteAmp))
	}
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
		cfg := nas.Config{Kernel: k, Iters: 1, Seed: 3}
		if quick {
			cfg.Scale = quickScale(k)
		}
		cfg.Mode = nas.Baseline
		base := nas.Run(sim.MachineA().AttachOps(ctx), cfg)
		cfg.Mode = nas.Clean
		clean := nas.Run(sim.MachineA().AttachOps(ctx), cfg)
		scenario.Row(w, string(k), f2(base.WriteAmp), f2(clean.WriteAmp),
			f2(float64(clean.Elapsed)/float64(base.Elapsed)),
			fmt.Sprint(base.Checksum == clean.Checksum))
	}
}

// quickScale shrinks each kernel for smoke runs.
func quickScale(k nas.Kernel) int {
	switch k {
	case nas.MG, nas.SP:
		return 64
	case nas.BT:
		return 40
	case nas.FT:
		return 32
	case nas.UA:
		return 1 << 14
	case nas.IS:
		return 1 << 17
	default:
		return 0
	}
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
		cfg := nas.Config{Kernel: k, Iters: 1, Seed: 3, Window: sim.WindowRemote}
		if quick {
			cfg.Scale = quickScale(k)
		}
		cfg.Mode = nas.Baseline
		base := nas.Run(sim.MachineBFast().AttachOps(ctx), cfg)
		cfg.Mode = nas.Clean
		clean := nas.Run(sim.MachineBFast().AttachOps(ctx), cfg)
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
	ftCfg := nas.Config{Kernel: nas.FT, Iters: 1, Seed: 3}
	if quick {
		ftCfg.Scale = quickScale(nas.FT)
	}
	ftCfg.Mode = nas.Baseline
	ftBase := nas.Run(sim.MachineA().AttachOps(ctx), ftCfg)
	ftCfg.Mode = nas.CleanHot
	ftHot := nas.Run(sim.MachineA().AttachOps(ctx), ftCfg)
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
	isCfg := nas.Config{Kernel: nas.IS, Iters: 1, Seed: 3}
	if quick {
		isCfg.Scale = quickScale(nas.IS)
	}
	isCfg.Mode = nas.Baseline
	isBase := nas.Run(sim.MachineA().AttachOps(ctx), isCfg)
	isCfg.Mode = nas.Clean
	isClean := nas.Run(sim.MachineA().AttachOps(ctx), isCfg)
	scenario.Row(w, "variant", "Mcyc", "delta")
	scenario.Row(w, "baseline", fmt.Sprintf("%.1f", float64(isBase.Elapsed)/1e6), "")
	scenario.Row(w, "clean", fmt.Sprintf("%.1f", float64(isClean.Elapsed)/1e6),
		pct(float64(isClean.Elapsed)/float64(isBase.Elapsed)))
}
