package bench

import (
	"context"
	"fmt"
	"io"

	"prestores/internal/core"
	"prestores/internal/dirtbuster"
	"prestores/internal/scenario"
	"prestores/internal/sim"
	"prestores/internal/units"
	"prestores/internal/workloads/clht"
	"prestores/internal/workloads/kv"
	"prestores/internal/workloads/masstree"
	"prestores/internal/workloads/micro"
	"prestores/internal/workloads/nas"
	"prestores/internal/workloads/phoronix"
	"prestores/internal/workloads/tensor"
	"prestores/internal/workloads/x9"
	"prestores/internal/workloads/ycsb"
)

func init() {
	// Code, not a spec: DirtBuster classifies each application from its
	// access trace; no workload metric fills the table.
	register(Experiment{
		ID:    "table2",
		Title: "DirtBuster classification of the evaluated applications",
		Paper: "Table 2: write-intensive?, sequential writes?, writes before fence? per application",
		Run:   runTable2,
	})
}

// Table2Workloads returns the DirtBuster-analyzable application set in
// the paper's Table 2 order (the NAS kernels plus TensorFlow, X9 and
// the key-value stores; the non-write-intensive Phoronix entries are
// represented by the read/compute-bound NAS kernels).
func Table2Workloads(quick bool) []dirtbuster.Workload {
	var out []dirtbuster.Workload
	// The Phoronix rows the paper screens out in step 1 (Table 2's
	// upper half): not write-intensive, never instrumented further.
	phx := []struct {
		name string
		run  func(m *sim.Machine)
	}{
		{"pytorch(numpy-proxy)", func(m *sim.Machine) { phoronix.Numpy(m, 1<<15, 1) }},
		{"numpy", func(m *sim.Machine) { phoronix.Numpy(m, 1<<15, 2) }},
		{"lzma", func(m *sim.Machine) { phoronix.Gzip(m, 1<<17, 3) }},
		{"c-ray", func(m *sim.Machine) { phoronix.CRay(m, 1<<11, 4) }},
		{"build-kernel", func(m *sim.Machine) { phoronix.BuildKernel(m, 12, 5) }},
		{"gzip", func(m *sim.Machine) { phoronix.Gzip(m, 1<<16, 6) }},
		{"rust-prime", func(m *sim.Machine) { phoronix.RustPrime(m, 8000, 7) }},
	}
	for _, w := range phx {
		out = append(out, dirtbuster.Workload{Name: w.name, NewMachine: sim.MachineA, Run: w.run})
	}
	out = append(out, dirtbuster.Workload{
		Name:       "tensorflow",
		NewMachine: sim.MachineA,
		Run: func(m *sim.Machine) {
			features := 2048
			if quick {
				features = 1024
			}
			tensor.Train(m, tensor.TrainConfig{BatchSize: 8, Features: features, Steps: 1, Mode: tensor.Baseline})
		},
	})
	out = append(out, dirtbuster.Workload{
		Name:       "x9",
		NewMachine: sim.MachineBFast,
		Run: func(m *sim.Machine) {
			x9.Run(m, x9.Config{Iters: 2000, MsgSize: 512, Seed: 3})
		},
	})
	for _, which := range []string{"clht", "masstree"} {
		which := which
		out = append(out, dirtbuster.Workload{
			Name:       which,
			NewMachine: sim.MachineA,
			Run: func(m *sim.Machine) {
				var store kv.Store
				if which == "clht" {
					store = clht.New(m, clht.Config{Buckets: 1 << 16, Overflow: 16 * units.MiB})
				} else {
					store = masstree.New(m, masstree.Config{})
				}
				heap := kv.NewValueHeap(m, sim.WindowPMEM, units.GiB)
				cfg := ycsb.Config{Records: 50_000, Ops: 1000, Threads: 4,
					ValueSize: 1024, Workload: ycsb.A, Seed: 5}
				ycsb.Load(m, store, heap, cfg)
				ycsb.Run(m, store, heap, cfg)
			},
		})
	}
	for _, k := range nas.Kernels {
		k := k
		out = append(out, dirtbuster.Workload{
			Name:       "nas-" + string(k),
			NewMachine: sim.MachineA,
			Run: func(m *sim.Machine) {
				nas.Run(m, nasConfig(k, quick))
			},
		})
	}
	out = append(out, dirtbuster.Workload{
		Name:       "listing1",
		NewMachine: sim.MachineA,
		Run: func(m *sim.Machine) {
			micro.RunListing1(m, micro.Listing1Config{
				ElemSize: 1024, Elements: 8192, Threads: 2, Iters: 3000,
				ReRead: true, Seed: 5,
			})
		},
	})
	return out
}

func runTable2(ctx context.Context, w io.Writer, quick bool) {
	scenario.Row(w, "application", "write-int", "sequential", "before-fence", "choice")
	for _, wl := range Table2Workloads(quick) {
		if cancelled(ctx) {
			return
		}
		// Attach this run's machines to the surrounding ops counter and
		// publish each run's ops when it returns; Table2Workloads keeps
		// its context-free signature for the CLI consumers.
		mk, run := wl.NewMachine, wl.Run
		wl.NewMachine = func() *sim.Machine { return mk().AttachOps(ctx) }
		wl.Run = func(m *sim.Machine) { run(m); m.FlushOps() }
		rep := dirtbuster.Analyze(wl, dirtbuster.Config{})
		seq, fence := "", ""
		choice := core.NoPrestore
		if rep.WriteIntensive {
			for _, f := range rep.Functions {
				if f.Choice == core.NoPrestore {
					continue
				}
				if f.SeqWriteShare >= rep.Config.MinSeqShare {
					seq = "yes"
				}
				if f.HasFences && f.WritesBeforeFence >= rep.Config.MinFenceShare {
					fence = "yes"
				}
				if choice == core.NoPrestore {
					choice = f.Choice // top-ranked function's advice
				}
			}
		}
		wi := "no"
		if rep.WriteIntensive {
			wi = "yes"
		}
		scenario.Row(w, wl.Name, wi, orDash(seq), orDash(fence), choice.String())
	}
	fmt.Fprintln(w, "(choice = recommendation for the top write-intensive function)")
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
