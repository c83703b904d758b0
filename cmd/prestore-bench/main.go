// Command prestore-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	prestore-bench -list                  # list experiments
//	prestore-bench -run fig3              # one experiment
//	prestore-bench -run fig3,fig5         # several
//	prestore-bench -all                   # everything (slow)
//	prestore-bench -all -quick            # smoke-sized sweeps
//	prestore-bench -all -parallel 8       # worker pool (output unchanged)
//	prestore-bench -all -timeout 10m      # per-experiment wall-clock cap
//	prestore-bench -all -json BENCH.json  # machine-readable results
//	prestore-bench -all -quick -checkpoints /tmp/ckpt   # warm-start sweeps (same bytes, less time)
//	prestore-bench -all -server http://host:8344   # run on a prestored daemon
//	prestore-bench -run fig3 -quick -timeline t.json     # record a Perfetto timeline
//	prestore-bench -run fig3 -quick -linereport lines.json   # cache-line attribution
//	prestore-bench -dump-spec fig3        # print a spec-driven experiment's JSON spec
//	prestore-bench -spec my.json          # run a custom scenario spec locally
//	prestore-bench -spec my.json -server http://host:8344   # ... or on a daemon
//	prestore-bench -spec my.json -seed 7  # override the workload's RNG seed
//	prestore-bench -autotune my.json -seed 7 -trajectory traj.json   # search for the best pre-store plan
//	prestore-bench -autotune my.json -objective device_write_bytes -budget 64   # tune a different metric
//	prestore-bench -autotune my.json -server http://host:8344   # search on a daemon (or cluster)
//	prestore-bench -run fig3 -server http://host:8344 -spans s.json   # distributed trace artifact
//
// Experiments are independent (each builds its own simulated machine),
// so -parallel N runs them concurrently; output is flushed in
// deterministic ID order and is byte-identical to -parallel 1. A
// panicking or timed-out experiment is reported as failed without
// killing the sweep, and the process exits non-zero.
//
// With -server, experiments run on a prestored daemon instead of in
// process: every experiment is submitted up front (so the daemon's pool
// runs them concurrently and identical requests hit its result cache),
// then outputs are printed in ID order — byte-identical to a local run.
// SIGINT cancels the sweep; local or remote, in-flight experiments stop
// at their next iteration boundary.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"prestores/internal/bench"
	"prestores/internal/checkpoint"
	"prestores/internal/obs"
	"prestores/internal/sim"
	"prestores/internal/telemetry"
)

// writeTelemetry flushes the recorded timeline and line report to the
// requested files after a local run; the text form of the line report
// goes to stderr alongside the sweep summary. A nil recorder (no
// telemetry flags) is a no-op.
func writeTelemetry(rec *telemetry.Recorder, timelinePath, lineReportPath string) error {
	if rec == nil {
		return nil
	}
	if timelinePath != "" {
		f, err := os.Create(timelinePath)
		if err != nil {
			return err
		}
		err = rec.WriteTimeline(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing %s: %w", timelinePath, err)
		}
		fmt.Fprintf(os.Stderr, "prestore-bench: wrote timeline (%d events, %d dropped) to %s\n",
			rec.Events(), rec.Dropped(), timelinePath)
	}
	if lineReportPath != "" {
		rep := rec.LineReport(telemetry.ReportLines)
		f, err := os.Create(lineReportPath)
		if err != nil {
			return err
		}
		err = rep.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing %s: %w", lineReportPath, err)
		}
		rep.WriteText(os.Stderr)
		fmt.Fprintf(os.Stderr, "prestore-bench: wrote line report to %s\n", lineReportPath)
	}
	return nil
}

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	run := flag.String("run", "", "comma-separated experiment IDs to run")
	all := flag.Bool("all", false, "run every experiment")
	quick := flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"experiment worker-pool size (1 = serial; output is identical either way)")
	timeout := flag.Duration("timeout", 0,
		"per-experiment wall-clock timeout (0 = none; local runs only)")
	jsonPath := flag.String("json", "",
		"also write results as a JSON array to this file")
	serverURL := flag.String("server", "",
		"run experiments on a prestored daemon at this base URL instead of in process")
	specPath := flag.String("spec", "",
		"run a declarative scenario spec from this JSON file (locally, or on -server)")
	dumpSpec := flag.String("dump-spec", "",
		"print the declarative spec behind a spec-driven experiment and exit")
	cpuProfile := flag.String("cpuprofile", "",
		"write a CPU profile of the sweep to this file")
	memProfile := flag.String("memprofile", "",
		"write a heap profile (taken after the sweep) to this file")
	timelinePath := flag.String("timeline", "",
		"record a simulated-cycle timeline and write it as Chrome trace-event JSON to this file (forces -parallel 1)")
	lineReportPath := flag.String("linereport", "",
		"record per-cache-line write attribution and write the report as JSON to this file (forces -parallel 1)")
	checkpointDir := flag.String("checkpoints", "",
		"warm-state checkpoint directory: sweeps fork sibling grid points from memoized post-warmup snapshots instead of reloading (output is byte-identical; local runs only)")
	autotunePath := flag.String("autotune", "",
		"search for the best pre-store plan over the scenario spec in this JSON file (locally, or on -server)")
	seedFlag := flag.Int64("seed", -1,
		"RNG seed: overrides workload.params.seed for -spec, seeds the -autotune search (-1 keeps defaults)")
	budget := flag.Int("budget", 0,
		"candidate evaluation budget for -autotune (0 = the engine default)")
	objective := flag.String("objective", "",
		"workload metric the -autotune search optimizes (default elapsed, minimized)")
	trajectoryPath := flag.String("trajectory", "",
		"write the -autotune search trajectory as JSON to this file")
	spansPath := flag.String("spans", "",
		"write the submission's distributed span timeline (client + server side, Chrome trace-event JSON) to this file; requires -server")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		obs.PrintVersion(os.Stdout, "prestore-bench")
		return
	}

	// Flag cross-validation, mirroring the -timeline rules: every flag
	// that silently does nothing in the selected mode is an error.
	if *autotunePath != "" {
		switch {
		case *specPath != "" || *run != "" || *all:
			fmt.Fprintln(os.Stderr, "prestore-bench: -autotune is its own mode and cannot be combined with -spec/-run/-all")
			os.Exit(2)
		case *timelinePath != "" || *lineReportPath != "":
			fmt.Fprintln(os.Stderr, "prestore-bench: -timeline/-linereport cannot be combined with -autotune; the search records its own telemetry probe (see the trajectory's probe section)")
			os.Exit(2)
		case *jsonPath != "":
			fmt.Fprintln(os.Stderr, "prestore-bench: -json records experiment sweeps; use -trajectory to save an -autotune search")
			os.Exit(2)
		}
	} else {
		if *budget != 0 || *objective != "" || *trajectoryPath != "" {
			fmt.Fprintln(os.Stderr, "prestore-bench: -budget/-objective/-trajectory only apply to -autotune")
			os.Exit(2)
		}
		if *seedFlag >= 0 && *specPath == "" {
			fmt.Fprintln(os.Stderr, "prestore-bench: -seed only applies to -spec (workload RNG) or -autotune (search RNG)")
			os.Exit(2)
		}
	}
	if *spansPath != "" {
		switch {
		case *serverURL == "":
			fmt.Fprintln(os.Stderr, "prestore-bench: -spans records a distributed trace and requires -server")
			os.Exit(2)
		case *specPath != "" || *autotunePath != "":
			fmt.Fprintln(os.Stderr, "prestore-bench: -spans follows experiment submissions (-run/-all); not supported for -spec/-autotune")
			os.Exit(2)
		}
	}

	var exps []bench.Experiment
	switch {
	case *list:
		for _, e := range bench.All() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return
	case *dumpSpec != "":
		if err := writeSpec(os.Stdout, *dumpSpec); err != nil {
			fmt.Fprintf(os.Stderr, "prestore-bench: %v\n", err)
			os.Exit(2)
		}
		return
	case *all:
		exps = bench.All()
	case *run != "":
		for _, id := range strings.Split(*run, ",") {
			e, ok := bench.Lookup(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", id)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	case *specPath != "", *autotunePath != "": // handled below, after signal setup
	default:
		flag.Usage()
		os.Exit(2)
	}

	// Telemetry recording observes every machine the sweep builds via
	// the global registry, so it is inherently single-run: force serial
	// execution and refuse the remote path (a daemon job records
	// telemetry through the scenario spec's telemetry block instead).
	var rec *telemetry.Recorder
	if *timelinePath != "" || *lineReportPath != "" {
		if *serverURL != "" {
			fmt.Fprintln(os.Stderr, "prestore-bench: -timeline/-linereport record in process and cannot be combined with -server; submit a scenario spec with a telemetry block instead")
			os.Exit(2)
		}
		if *parallel != 1 {
			*parallel = 1
		}
		rec = telemetry.New(telemetry.Config{
			Timeline:   *timelinePath != "",
			LineReport: *lineReportPath != "",
		})
		cancelObs := sim.ObserveMachines(rec.Attach)
		defer cancelObs()
	}

	// SIGINT cancels the sweep cooperatively: in-flight experiments
	// stop at their next iteration boundary and are reported failed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Warm-state checkpointing: put a view of a disk-backed store on the
	// context; sweeps that declare a warm phase fork from it. The daemon
	// manages its own store, so the flag is local-only.
	var ckptView *checkpoint.View
	if *checkpointDir != "" {
		if *serverURL != "" {
			fmt.Fprintln(os.Stderr, "prestore-bench: -checkpoints is local-only; the daemon manages its own checkpoint store (-checkpoint-dir on prestored)")
			os.Exit(2)
		}
		if rec != nil {
			// The global observer cannot fork a recorder's state, so a
			// forked run would record no warm-phase events.
			fmt.Fprintln(os.Stderr, "prestore-bench: -timeline/-linereport cannot be combined with -checkpoints; forked runs skip the warm phase the recorder must see")
			os.Exit(2)
		}
		store, err := checkpoint.NewStore(0, *checkpointDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prestore-bench: %v\n", err)
			os.Exit(1)
		}
		ckptView = store.View()
		ctx = checkpoint.NewContext(ctx, ckptView)
	}

	if *autotunePath != "" {
		err := runAutotuneFile(ctx, *autotunePath, autotuneOpts{
			server:     *serverURL,
			quick:      *quick,
			parallel:   *parallel,
			seed:       *seedFlag,
			budget:     *budget,
			objective:  *objective,
			trajectory: *trajectoryPath,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "prestore-bench: %v\n", err)
			os.Exit(1)
		}
		if ckptView != nil {
			fmt.Fprintf(os.Stderr, "prestore-bench: checkpoints: %d hits, %d misses\n",
				ckptView.Hits(), ckptView.Misses())
		}
		return
	}

	if *specPath != "" {
		err := runSpecFile(ctx, os.Stdout, *specPath, *serverURL, *quick, *seedFlag)
		if err == nil {
			err = writeTelemetry(rec, *timelinePath, *lineReportPath)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "prestore-bench: %v\n", err)
			os.Exit(1)
		}
		if ckptView != nil {
			fmt.Fprintf(os.Stderr, "prestore-bench: checkpoints: %d hits, %d misses\n",
				ckptView.Hits(), ckptView.Misses())
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prestore-bench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "prestore-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	sweepStart := time.Now()
	opsBefore := sim.RetiredOps()
	var results []bench.Result
	var runErr error
	var spanCol *spanCollector
	if *spansPath != "" {
		spanCol = newSpanCollector()
	}
	if *serverURL != "" {
		results, runErr = runRemote(ctx, os.Stdout, *serverURL, exps, *quick, spanCol)
	} else {
		results, runErr = bench.Run(ctx, os.Stdout, exps, bench.RunnerConfig{
			Parallel: *parallel,
			Quick:    *quick,
			Timeout:  *timeout,
		})
	}
	sweepOps := sim.RetiredOps() - opsBefore
	sweepWall := time.Since(sweepStart)
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "prestore-bench: sweep aborted: %v\n", runErr)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prestore-bench: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "prestore-bench: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}

	if err := writeTelemetry(rec, *timelinePath, *lineReportPath); err != nil {
		fmt.Fprintf(os.Stderr, "prestore-bench: %v\n", err)
		os.Exit(1)
	}

	if spanCol != nil {
		if err := spanCol.write(*spansPath); err != nil {
			fmt.Fprintf(os.Stderr, "prestore-bench: %v\n", err)
			os.Exit(1)
		}
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prestore-bench: %v\n", err)
			os.Exit(1)
		}
		err = bench.WriteJSON(f, results)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "prestore-bench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
	}

	failed := 0
	var wall time.Duration
	for i := range results {
		wall += results[i].WallTime
		if results[i].Failed() {
			failed++
			fmt.Fprintf(os.Stderr, "prestore-bench: %s: %s\n", results[i].ID, results[i].Err)
		}
	}
	fmt.Fprintf(os.Stderr, "prestore-bench: %d experiment(s), %s total experiment time, %d failed\n",
		len(results), wall.Round(time.Millisecond), failed)
	if ckptView != nil {
		fmt.Fprintf(os.Stderr, "prestore-bench: checkpoints: %d hits, %d misses\n",
			ckptView.Hits(), ckptView.Misses())
	}
	if *serverURL == "" {
		if s := sweepWall.Seconds(); s > 0 && sweepOps > 0 {
			fmt.Fprintf(os.Stderr, "prestore-bench: %d simulated ops in %s (%.2f Mops/s host throughput)\n",
				sweepOps, sweepWall.Round(time.Millisecond), float64(sweepOps)/s/1e6)
		}
	}
	if failed > 0 || runErr != nil {
		os.Exit(1)
	}
}
