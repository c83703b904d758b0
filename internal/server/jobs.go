package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"

	"prestores/internal/bench"
	"prestores/internal/dirtbuster"
	"prestores/internal/pmcheck"
	"prestores/internal/sim"
	"prestores/internal/trace"
)

// experimentSpec is the POST /v1/experiments body. Its JSON encoding
// (fixed field order) is part of the cache key.
type experimentSpec struct {
	ID    string `json:"id"`
	Quick bool   `json:"quick"`
}

// dirtbusterSpec is the POST /v1/dirtbuster body.
type dirtbusterSpec struct {
	Workload string `json:"workload"`
	Quick    bool   `json:"quick"`
}

// traceSpec is the POST /v1/trace body: record the named workload's
// operation trace, then analyze it offline. Mode selects the analysis:
// "dirtbuster" (default) for the paper-format report, "report" for the
// perf-report-style per-function time profile, "pmcheck" for the
// persistence checker.
type traceSpec struct {
	Workload string `json:"workload"`
	Mode     string `json:"mode"`
	PMBase   uint64 `json:"pm_base,omitempty"`
	PMSize   uint64 `json:"pm_size,omitempty"`
}

// The prepare functions are the per-kind step of the submit pipeline
// (submitRoute): each validates a decoded body into the job's
// cache-key value and run function.

func (s *Server) prepareExperiment(spec *experimentSpec) (any, runFunc, error) {
	e, ok := s.cfg.Lookup(spec.ID)
	if !ok {
		return nil, nil, httpErrorf(http.StatusNotFound,
			"unknown experiment %q; GET /v1/experiments lists the registry", spec.ID)
	}
	return *spec, s.experimentRun(e, spec.Quick), nil
}

func (s *Server) prepareDirtbuster(spec *dirtbusterSpec) (any, runFunc, error) {
	wl, err := s.workload(spec.Workload, spec.Quick)
	if err != nil {
		return nil, nil, err
	}
	return *spec, s.dirtbusterRun(wl), nil
}

func (s *Server) prepareTrace(spec *traceSpec) (any, runFunc, error) {
	// Trace recordings always use smoke-sized workloads, like
	// prestore-trace: full traces of full-size workloads are huge.
	wl, err := s.workload(spec.Workload, true)
	if err != nil {
		return nil, nil, err
	}
	return *spec, s.traceRun(wl, *spec), nil
}

// experimentRun builds the run function for an experiment job: the
// bench runner's single-experiment harness (panic containment,
// timeout, cooperative cancellation, SimOps accounting), streaming
// output into the progress log as rows are produced. The output bytes
// are exactly what bench.RunOne writes for the same experiment, which
// is what the golden-determinism guard asserts.
func (s *Server) experimentRun(e bench.Experiment, quick bool) runFunc {
	return s.guarded(e.ID, e.Title, func(ctx context.Context, _ *job, out io.Writer) error {
		return bench.RunOne(ctx, out, e, quick)
	})
}

// guarded builds the run function of a DirtBuster, trace, scenario,
// eval, analysis or autotuning job: body runs under bench.Guarded, the
// harness experiments run under (timeout, per-run SimOps accounting,
// panic containment, timeout and cancellation labeling), and
// everything it writes is teed into the job's progress log as it is
// written, so an attached stream follows it live. The body receives
// the job so it can attach artifacts.
func (s *Server) guarded(id, title string,
	body func(ctx context.Context, j *job, out io.Writer) error) runFunc {
	return func(ctx context.Context, j *job) bench.Result {
		res, _ := bench.Guarded(ctx, j.out, id, title, s.cfg.JobTimeout, func(ctx context.Context, out io.Writer) error {
			return body(ctx, j, out)
		})
		return res
	}
}

// attachOps returns a copy of wl whose machines report retired ops to
// the context's per-run counter (see sim.WithOpsSink).
func attachOps(ctx context.Context, wl dirtbuster.Workload) dirtbuster.Workload {
	mk := wl.NewMachine
	wl.NewMachine = func() *sim.Machine { return mk().AttachOps(ctx) }
	return wl
}

// workload finds a DirtBuster-analyzable workload by name; an unknown
// name is a 404.
func (s *Server) workload(name string, quick bool) (dirtbuster.Workload, error) {
	for _, w := range s.cfg.Workloads(quick) {
		if w.Name == name {
			return w, nil
		}
	}
	return dirtbuster.Workload{}, httpErrorf(http.StatusNotFound,
		"unknown workload %q; GET /v1/registry lists them under dirtbuster_workloads", name)
}

// dirtbusterRun builds the run function for a DirtBuster analysis job.
func (s *Server) dirtbusterRun(wl dirtbuster.Workload) runFunc {
	return s.guarded("dirtbuster/"+wl.Name, "DirtBuster analysis of "+wl.Name,
		func(ctx context.Context, _ *job, out io.Writer) error {
			wl := attachOps(ctx, wl)
			rep := dirtbuster.Analyze(wl, dirtbuster.Config{})
			fmt.Fprintln(out, rep.Render())
			return nil
		})
}

// traceRun builds the run function for a trace-analysis job: stream
// the workload's operation trace into an in-memory chunked recording,
// then analyze the chunks offline per spec.Mode — "dirtbuster" through
// the same two-pass pipeline as /v1/analyses, "report" as its pass 1,
// "pmcheck" one chunk at a time. Cancellation is checked between the
// record and analyze stages.
func (s *Server) traceRun(wl dirtbuster.Workload, spec traceSpec) runFunc {
	mode := spec.Mode
	if mode == "" {
		mode = "dirtbuster"
	}
	return s.guarded("trace/"+mode+"/"+wl.Name, "trace analysis ("+mode+") of "+wl.Name,
		func(ctx context.Context, j *job, out io.Writer) error {
			var rec bytes.Buffer
			tw := trace.NewWriter(&rec, trace.WriterOptions{})
			line := dirtbuster.RecordStream(attachOps(ctx, wl), tw.Hook())
			if err := tw.Close(); err != nil {
				return fmt.Errorf("recording trace: %w", err)
			}
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("cancelled: %w", err)
			}
			cr, err := trace.NewChunkReader(bytes.NewReader(rec.Bytes()))
			if err != nil {
				return err
			}
			switch mode {
			case "dirtbuster":
				rep, err := s.analyzeStored(ctx, j.out, rec.Bytes(), analysisSpec{App: wl.Name, LineSize: line})
				if err != nil {
					return err
				}
				fmt.Fprintln(out, rep.Render())
			case "report":
				st, err := dirtbuster.StatsOf(cr)
				if err != nil {
					return err
				}
				io.WriteString(out, st.RenderProfile())
			case "pmcheck":
				cfg := pmcheck.Config{Base: spec.PMBase, Size: spec.PMSize, LineSize: line}
				if cfg.Base == 0 {
					cfg.Base = pmcheck.DefaultBase
				}
				if cfg.Size == 0 {
					cfg.Size = pmcheck.DefaultSize
				}
				res, err := pmcheck.Check(cr, cfg)
				if err != nil {
					return err
				}
				io.WriteString(out, res.Render())
			default:
				return fmt.Errorf("unknown trace mode %q (want dirtbuster, report or pmcheck)", mode)
			}
			return nil
		})
}
