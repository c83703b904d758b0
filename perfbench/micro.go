package main

import (
	"context"
	"encoding/json"
	"time"

	"prestores/internal/checkpoint"
	"prestores/internal/scenario"
	"prestores/internal/sim"
	"prestores/internal/workloads/kv"
	"prestores/internal/workloads/ycsb"
)

// perLayer lists the metrics the traced run prints, in BENCHMARK.json
// order. README.md maps each to the end-to-end metric it should move.
var perLayer = []metricDef{
	{"sim.read_ns.a", "ns"}, {"sim.write_ns.a", "ns"}, {"sim.write_nt_ns.a", "ns"},
	{"sim.prestore_clean_ns.a", "ns"}, {"sim.prestore_demote_ns.a", "ns"},
	{"sim.read_ns.b", "ns"}, {"sim.fence_ns.b", "ns"}, {"sim.ns_per_instr.cold", "ns"},
	{"sim.instr", "count"}, {"sim.loads", "count"}, {"sim.stores", "count"},
	{"sim.prestores", "count"}, {"sim.fences", "count"},
	{"sim.fence_stall_cycles", "cycles"}, {"sim.sb_stall_cycles", "cycles"},
	{"cache.l1_hit_ratio", "ratio"}, {"cache.llc_hit_ratio", "ratio"},
	{"cache.llc_dirty_evictions", "count"}, {"coherence.state_changes", "count"},
	{"memdev.write_bytes", "B"}, {"memdev.media_bytes", "B"},
	{"checkpoint.hits", "count"}, {"checkpoint.misses", "count"}, {"checkpoint.hit_ratio", "ratio"},
	{"checkpoint.bytes", "B"}, {"checkpoint.encode_ms", "ms"}, {"checkpoint.restore_ms", "ms"},
	{"autotune.evals", "count"}, {"autotune.plan_cache_hits", "count"},
	{"autotune.probe_ms", "ms"}, {"autotune.eval_ms", "ms"}, {"autotune.self_ms", "ms"},
	{"kvtune.search_s", "s"},
	{"scenario.decode_us", "us"}, {"scenario.eval_cold_ms", "ms"},
	{"server.hit_direct_ms", "ms"}, {"cluster.proxy_ms", "ms"},
	{"server.queue_wait_ms", "ms"}, {"server.run_ms", "ms"},
	{"server.result_cache_hit_ratio", "ratio"}, {"server.rejected_429", "count"},
	{"obs.metrics_scrape_ms", "ms"}, {"service.gen_late_ms", "ms"},
	{"service.hit_p50_ms", "ms"}, {"service.miss_p50_ms", "ms"}, {"service.latency_p90_ms", "ms"},
	{"trace.append_mrec_per_s", "Mrec/s"}, {"trace.read_mrec_per_s", "Mrec/s"},
	{"trace.bytes_per_rec", "B"}, {"trace.hook_overhead", "ratio"},
	{"dirtbuster.record_mrec_per_s", "Mrec/s"}, {"dirtbuster.analyze_mrec_per_s", "Mrec/s"},
	{"dirtbuster.stats_mrec_per_s", "Mrec/s"}, {"dirtbuster.partial_mrec_per_s", "Mrec/s"},
	{"dirtbuster.replay_mrec_per_s", "Mrec/s"},
	{"go.alloc_mb_per_op", "MB"}, {"go.gc_cycles_per_op", "count"},
	{"spans.overhead_pct", "%"},
}

// Core micro-timings use the address stream of the simulator's own
// BenchmarkCore*: 64 Ki line addresses walking an 8 MiB region (twice
// machine-a's LLC) in order. On machine-a the region sits in DRAM, as
// there, so these rows line up with the CI gate's numbers; on
// machine-b it sits in the FPGA window the service's fresh specs use,
// so reads and fences go through the on-device directory.
const (
	microFootprint = 8 << 20
	microOps       = 1 << 17
	microReps      = 5
)

func microAddrs(m *sim.Machine, window string) []uint64 {
	region := m.Alloc(window, "perfbench", microFootprint)
	lines := uint64(microFootprint) / m.LineSize()
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = region.Base + (uint64(i)%lines)*m.LineSize()
	}
	return addrs
}

// coreNs returns the median over microReps of the ns per call of op,
// after one warming pass over the stream.
func coreNs(m *sim.Machine, window string, op func(c *sim.Core, addr uint64, i int)) float64 {
	c := m.Core(0)
	addrs := microAddrs(m, window)
	for i, a := range addrs {
		op(c, a, i)
	}
	var ns []float64
	for k := 0; k < microReps; k++ {
		t := time.Now()
		for i := 0; i < microOps; i++ {
			op(c, addrs[i&(len(addrs)-1)], i)
		}
		ns = append(ns, float64(time.Since(t).Nanoseconds())/microOps)
	}
	return percentile(ns, 50)
}

// microLayers times the public calls the workloads cannot isolate. It
// runs in every traced run, whatever the workload.
func microLayers(r *run) {
	var buf [8]byte
	read := func(c *sim.Core, a uint64, _ int) { c.Read(a, buf[:]) }
	r.layer["sim.read_ns.a"] = coreNs(sim.MachineA(), sim.WindowDRAM, read)
	r.layer["sim.write_ns.a"] = coreNs(sim.MachineA(), sim.WindowDRAM, func(c *sim.Core, a uint64, _ int) { c.Write(a, buf[:]) })
	r.layer["sim.write_nt_ns.a"] = coreNs(sim.MachineA(), sim.WindowDRAM, func(c *sim.Core, a uint64, _ int) { c.WriteNT(a, buf[:]) })
	prestore := func(op sim.PrestoreOp) func(c *sim.Core, a uint64, i int) {
		return func(c *sim.Core, a uint64, i int) {
			c.WriteU64(a, uint64(i))
			c.Prestore(a, 8, op)
		}
	}
	r.layer["sim.prestore_clean_ns.a"] = coreNs(sim.MachineA(), sim.WindowDRAM, prestore(sim.Clean))
	r.layer["sim.prestore_demote_ns.a"] = coreNs(sim.MachineA(), sim.WindowDRAM, prestore(sim.Demote))
	r.layer["sim.read_ns.b"] = coreNs(sim.MachineBSlow(), sim.WindowRemote, read)
	r.layer["sim.fence_ns.b"] = coreNs(sim.MachineBSlow(), sim.WindowRemote, func(c *sim.Core, a uint64, i int) {
		c.WriteU64(a, uint64(i))
		c.Fence()
	})

	checkpointLayers(r)

	// Spec decoding as the daemon does it for every request body.
	body, err := json.Marshal(missSpec(r.seed, 2))
	if err != nil {
		r.fail("encoding a spec: %v", err)
		return
	}
	var us []float64
	for k := 0; k < microReps; k++ {
		const n = 500
		t := time.Now()
		for i := 0; i < n; i++ {
			sp, err := scenario.Decode(body)
			if err == nil {
				_, err = sp.Canonical()
			}
			if err != nil {
				r.fail("decoding a spec: %v", err)
				return
			}
		}
		us = append(us, float64(time.Since(t).Microseconds())/n)
	}
	r.layer["scenario.decode_us"] = percentile(us, 50)

	// Cold in-process evaluations of the service's first fresh specs:
	// the simulator's cost per simulated instruction, no reuse anywhere.
	log := observeMachines()
	defer log.close()
	var evalMs []float64
	var total time.Duration
	var instr uint64
	for j := 0; j < 4; j++ {
		sp := missSpec(r.seed, j)
		log.take()
		t := time.Now()
		if _, err := sp.EvalPoint(context.Background(), false); err != nil {
			r.fail("cold eval of fresh spec %d: %v", j, err)
			return
		}
		d := time.Since(t)
		total += d
		instr += log.take().Instr
		evalMs = append(evalMs, ms(d))
	}
	r.layer["scenario.eval_cold_ms"] = percentile(evalMs, 50)
	r.layer["sim.ns_per_instr.cold"] = float64(total.Nanoseconds()) / float64(instr)
}

// checkpointLayers times NewCheckpoint+Encode and DecodeCheckpoint+
// Restore on a machine-a right after a 20k-record CLHT load phase (the
// load is deterministic, so it needs no seed).
func checkpointLayers(r *run) {
	m := sim.MachineA()
	store, ok := kv.NewStore("clht", m, sim.WindowPMEM)
	if !ok {
		r.fail("no clht store")
		return
	}
	heap := kv.NewValueHeap(m, sim.WindowPMEM, 1<<30)
	ycsb.Load(m, store, heap, ycsb.Config{Records: 20000, Threads: 2, ValueSize: 256, Window: sim.WindowPMEM})
	var enc, restore []float64
	for k := 0; k < microReps; k++ {
		t := time.Now()
		ck, err := m.NewCheckpoint(checkpoint.Build(), nil)
		if err != nil {
			r.fail("checkpoint: %v", err)
			return
		}
		data := ck.Encode()
		enc = append(enc, ms(time.Since(t)))

		fresh := sim.MachineA()
		t = time.Now()
		dec, err := sim.DecodeCheckpoint(data)
		if err == nil {
			err = dec.Restore(fresh)
		}
		if err != nil {
			r.fail("restoring a checkpoint: %v", err)
			return
		}
		restore = append(restore, ms(time.Since(t)))
	}
	r.layer["checkpoint.encode_ms"] = percentile(enc, 50)
	r.layer["checkpoint.restore_ms"] = percentile(restore, 50)
}
