// Command prestored serves the prestores stack as a daemon: paper
// experiments, DirtBuster analyses and trace analyses become HTTP jobs
// with progress streaming, a content-addressed result cache, and
// Prometheus metrics.
//
// Usage:
//
//	prestored                          # listen on :8344
//	prestored -addr :9000 -workers 4   # custom listen address and pool
//	prestored -queue 16 -job-timeout 10m
//	prestored -log-level debug         # structured logs (slog) to stderr
//	prestored -pprof                   # expose /debug/pprof on the same listener (either mode)
//
// Cluster mode: a coordinator exposes the identical HTTP surface but
// runs no simulations itself — it routes each submit to a worker shard
// by consistent hashing of the request's content address (so the
// shards' result caches form a distributed cache), proxies status,
// stream, artifact and cancel calls to the owning shard, and requeues
// jobs to the next ring position when a shard dies. Clients, including
// prestore-bench -server, work against either unchanged:
//
//	prestored -addr :8345 &            # worker shard 1
//	prestored -addr :8346 &            # worker shard 2
//	prestored -addr :8344 -coordinator \
//	          -shards http://127.0.0.1:8345,http://127.0.0.1:8346
//
// Quick start against a running daemon:
//
//	curl -s localhost:8344/v1/experiments                      # experiment listing
//	curl -s localhost:8344/v1/registry                         # scenario blocks, DirtBuster workloads
//	curl -s -X POST localhost:8344/v1/experiments \
//	     -d '{"id":"fig3","quick":true}'                       # submit
//	curl -s localhost:8344/v1/jobs/job-1                       # poll
//	curl -sN -X POST 'localhost:8344/v1/experiments?stream=1' \
//	     -d '{"id":"fig3","quick":true}'                       # stream
//	curl -s localhost:8344/metrics                             # scrape
//
// Autotuning: POST /v1/autotune runs a closed-loop search for the best
// pre-store plan over a single-point scenario spec (per-iteration
// NDJSON progress with ?stream=1; trajectory and winner artifacts at
// /v1/jobs/{id}/trajectory and .../winner). POST /v1/eval evaluates one
// single-point spec to raw metrics — the autotuner's measurement
// primitive, which a coordinator routes to its shards so the cluster
// evaluates each search generation in parallel (the search itself runs
// on the coordinator's embedded autotune host). The same request with
// the same seed reproduces the identical trajectory byte for byte,
// standalone or clustered.
//
// The first SIGINT/SIGTERM drains gracefully: the listener stops, new
// submits get 503, queued and running jobs complete (bounded by
// -drain-timeout). A second signal cancels the remaining jobs
// cooperatively and exits as soon as they stop.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"prestores/internal/obs"
	"prestores/internal/server"
	"prestores/internal/server/cluster"
)

func main() {
	addr := flag.String("addr", ":8344", "listen address")
	workers := flag.Int("workers", 0, "job worker-pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "queued-job bound; a full queue rejects submits with 429 (0 = default 64)")
	jobTimeout := flag.Duration("job-timeout", 15*time.Minute, "per-job wall-clock timeout (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Minute,
		"graceful-shutdown bound; jobs still running at the deadline are cancelled")
	checkpointBytes := flag.Int64("checkpoint-bytes", 0,
		"in-memory warm-state checkpoint cache bound shared by all jobs (0 = 1 GiB, negative disables)")
	checkpointDir := flag.String("checkpoint-dir", "",
		"warm-state checkpoint disk tier; checkpoints survive restarts (empty = memory only)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
	pprofFlag := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof on the listen address")
	coordinator := flag.Bool("coordinator", false,
		"run as a cluster coordinator routing jobs to -shards instead of simulating locally")
	shards := flag.String("shards", "",
		"comma-separated worker base URLs for -coordinator mode (e.g. http://w1:8344,http://w2:8344)")
	probeInterval := flag.Duration("probe-interval", 2*time.Second,
		"coordinator health-probe period for worker shards")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		obs.PrintVersion(os.Stdout, "prestored")
		return
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		slog.New(slog.NewTextHandler(os.Stderr, nil)).
			Error("invalid -log-level (want debug, info, warn or error)", "got", *logLevel)
		os.Exit(2)
	}
	// Every log line whose context carries a span gets trace_id/span_id
	// attributes — grep one trace ID to follow a request end to end.
	log := slog.New(obs.NewLogHandler(
		slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})))

	// The process-wide flight recorder: always on, bounded, lock-free.
	// Dumped via GET /v1/debug/flightrecorder, on a forced shutdown, and
	// on a main-goroutine panic.
	flight := obs.NewFlightRecorder(0)
	defer flight.DumpOnPanic(os.Stderr)

	// Both modes expose the same HTTP surface and the same
	// listen/drain lifecycle; only what sits behind the mux differs.
	var handler http.Handler
	var shutdown func(context.Context) error
	if *coordinator {
		if *shards == "" {
			log.Error("-coordinator requires -shards (comma-separated worker base URLs)")
			os.Exit(2)
		}
		var list []string
		for _, s := range strings.Split(*shards, ",") {
			if s = strings.TrimSpace(s); s != "" {
				list = append(list, s)
			}
		}
		coord, err := cluster.New(cluster.Config{
			Shards:        list,
			ProbeInterval: *probeInterval,
			Logger:        log,
			Instance:      *addr,
			Flight:        flight,
		})
		if err != nil {
			log.Error("coordinator startup failed", "err", err)
			os.Exit(2)
		}
		log.Info("coordinator mode", "shards", list)
		handler = coord.Handler()
		shutdown = coord.Shutdown
	} else {
		srv := server.New(server.Config{
			Workers:         *workers,
			QueueDepth:      *queue,
			JobTimeout:      *jobTimeout,
			CheckpointBytes: *checkpointBytes,
			CheckpointDir:   *checkpointDir,
			Logger:          log,
			Instance:        *addr,
			Flight:          flight,
		})
		handler = srv.Handler()
		shutdown = srv.Shutdown
	}
	if *pprofFlag {
		handler = server.WithPprof(handler)
	}
	hs := &http.Server{Addr: *addr, Handler: handler}

	errc := make(chan error, 1)
	go func() {
		log.Info("listening", "addr", *addr, "pprof", *pprofFlag)
		errc <- hs.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errc:
		log.Error("serve failed", "err", err)
		os.Exit(1)
	case sig := <-sigc:
		log.Info("draining (second signal forces)", "signal", sig.String())
	}

	// Stop accepting connections, then drain jobs. A second signal
	// collapses the drain window to an immediate cooperative cancel.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancelDrain()
	go func() {
		<-sigc
		log.Warn("forcing shutdown")
		// A forced shutdown is exactly when the recent past matters:
		// dump the flight recorder before the jobs are cancelled.
		flight.Record("shutdown.forced", "", "", "second signal")
		flight.WriteText(os.Stderr)
		cancelDrain()
	}()

	lctx, cancelListen := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelListen()
	if err := hs.Shutdown(lctx); err != nil {
		hs.Close()
	}
	if err := shutdown(drainCtx); err != nil && !errors.Is(err, context.Canceled) {
		log.Error("drain incomplete", "err", err)
		os.Exit(1)
	}
	log.Info("shutdown complete")
}
