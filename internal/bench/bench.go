// Package bench is the experiment harness: one registered experiment
// per table and figure of the paper's evaluation, each regenerating the
// same rows/series the paper reports, plus the ablations called out in
// DESIGN.md. The cmd/prestore-bench binary, the prestored daemon
// (internal/server) and the root bench_test.go drive this registry.
package bench

import (
	"context"
	"fmt"
	"io"
	"sort"

	"prestores/internal/sim"
)

// Experiment regenerates one table or figure.
type Experiment struct {
	// ID is the short handle, e.g. "fig3" or "table2".
	ID string
	// Title describes the experiment.
	Title string
	// Paper summarizes what the paper reports, for side-by-side reading.
	Paper string
	// Run executes the experiment, writing its table to w. quick mode
	// shrinks sweeps for smoke tests and testing.B use. Implementations
	// check ctx at sweep-iteration boundaries (see cancelled) and return
	// early once it is done; the runner detects the cancellation and
	// reports the experiment failed with its partial output.
	Run func(ctx context.Context, w io.Writer, quick bool)
}

var registry = map[string]Experiment{}

// register adds an experiment; duplicate IDs panic at init time.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("bench: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// cancelled reports whether ctx is done. Experiment sweep loops call it
// at iteration boundaries, so a timeout, a client disconnect or a
// daemon shutdown stops simulation work at the next boundary instead of
// burning a worker until the sweep would have finished on its own.
func cancelled(ctx context.Context) bool { return ctx.Err() != nil }

// RunAll executes every experiment in ID order on a single worker; it
// is Run with Parallel: 1 over the full registry.
func RunAll(ctx context.Context, w io.Writer, quick bool) error {
	_, err := Run(ctx, w, All(), RunnerConfig{Parallel: 1, Quick: quick})
	return err
}

// RunOne executes a single experiment with its header. It returns the
// first error w reported; once a write fails, the remaining output is
// discarded (experiments keep their plain io.Writer contract, so the
// latched error is how a hung-up sink surfaces).
func RunOne(ctx context.Context, w io.Writer, e Experiment, quick bool) error {
	ew := &errWriter{w: w}
	fmt.Fprintf(ew, "\n=== %s: %s ===\n", e.ID, e.Title)
	fmt.Fprintf(ew, "paper: %s\n", e.Paper)
	if ew.err == nil && !cancelled(ctx) {
		e.Run(ctx, ew, quick)
	}
	return ew.err
}

// errWriter latches the first write error and discards everything
// after it. Experiments write through fmt helpers that drop errors, so
// this is what lets RunOne and the runner notice a dead sink.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return 0, ew.err
	}
	n, err := ew.w.Write(p)
	if err != nil {
		ew.err = err
	}
	return n, err
}

// runOn runs one workload call on m, attached to ctx's ops counter,
// then publishes the ops m retired since its last drain, so a code
// experiment's Result.SimOps is exact (spec runs flush in the scenario
// runner).
func runOn[C, R any](ctx context.Context, m *sim.Machine, run func(*sim.Machine, C) R, cfg C) R {
	r := run(m.AttachOps(ctx), cfg)
	m.FlushOps()
	return r
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

func pct(ratio float64) string { return fmt.Sprintf("%+.1f%%", (ratio-1)*100) }
