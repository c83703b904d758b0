// Package autotune is the closed-loop DirtBuster: an iterative policy
// search that finds the best pre-store plan for a workload. Given a
// single-point scenario spec it first measures the all-none baseline
// under a line-report recorder, seeds a uniform plan from the paper's
// decision rules (demote on far rewrites, clean on far re-reads, skip
// otherwise), then hill-climbs deterministically over the per-site op
// table and candidate placement windows, with seeded random restarts
// out of local optima. Every candidate evaluation, the recorded
// baseline included, forks from the shared warm checkpoint when the
// runner has one, so a search costs at most one load phase plus cheap
// measured phases — and none when an earlier search with the same warm
// state (say, another seed) already paid it.
//
// The search is deterministic end to end: the same (spec, params)
// reproduces the same NDJSON progress stream and the same trajectory
// artifact byte for byte, regardless of the Parallel setting and of
// whether candidates run in process or across cluster shards.
package autotune

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"prestores/internal/obs"
	"prestores/internal/scenario"
	"prestores/internal/telemetry"
	"prestores/internal/xrand"
)

type engine struct {
	base     scenario.Spec
	par      Params
	ev       Evaluator
	progress io.Writer
	rng      *xrand.PCG

	sites   []string // workload declaration order
	ops     []string // workload op order
	windows []string // searched windows; "" = workload default

	cache map[string]*Iteration // plan key → evaluated iteration
	iters []*Iteration
	best  *Iteration
	evals int
	hits  int
}

// Run executes one autotuning search over base's plan space and
// returns the full trajectory plus the winning spec. progress, when
// non-nil, receives one NDJSON event per line as the search advances.
func Run(ctx context.Context, base scenario.Spec, par Params, ev Evaluator, progress io.Writer) (*Result, error) {
	par, err := Normalize(&base, par)
	if err != nil {
		return nil, err
	}
	w, _ := scenario.Get(base.Workload.Name)
	// Candidate specs differ only in policy.window/policy.table;
	// telemetry stays off except for a separate probe's spec.
	base.Telemetry = nil

	e := &engine{
		base:     base,
		par:      par,
		ev:       ev,
		progress: progress,
		rng:      xrand.New(par.Seed),
		sites:    w.Sites,
		ops:      w.Ops,
		windows:  searchWindows(base.Policy.Window, par.Windows),
		cache:    map[string]*Iteration{},
	}
	e.emit(evStart{Event: "start", Workload: w.Name, Objective: par.Objective,
		Maximize: par.Maximize, Budget: par.Budget, Seed: par.Seed,
		Quick: par.Quick, Sites: e.sites, Windows: e.windows})

	// Iteration 0: the all-none baseline every improvement is judged
	// against. It runs under a line-report recorder: the line report of
	// the unmodified program drives the decision-rule seeding. The
	// recorder forks from the warm checkpoint with the machine, so the
	// report is the cold run's whatever the checkpoint cache holds.
	baseline := uniformPlan(base.Policy.Window, e.sites, "none")
	rec := telemetry.New(telemetry.Config{LineReport: true})
	if _, err := e.evalBatch(scenario.WithRecorder(ctx, rec), []Plan{baseline}, "baseline"); err != nil {
		return nil, err
	}
	cur := e.cache[baseline.key()]
	rep, err := e.baselineReport(ctx, rec, baseline)
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	seedOp, rule := SeedPlan(rep, func(op string) bool { return containsStr(w.Ops, op) })
	probe := &Probe{Totals: rep.Totals(), WriteAmp: rep.WriteAmp, SeedOp: seedOp, Rule: rule}
	e.emit(evProbe{Event: "probe", SeedOp: seedOp, Rule: rule,
		WriteAmp: probe.WriteAmp, Totals: probe.Totals})

	if seedOp != "none" && e.evals < par.Budget {
		seed := uniformPlan(base.Policy.Window, e.sites, seedOp)
		if _, err := e.evalBatch(ctx, []Plan{seed}, "seed"); err != nil {
			return nil, err
		}
		if it := e.cache[seed.key()]; it != nil && e.better(it, cur) {
			it.Accepted = true
			cur = it
			e.emit(evMove{Event: "move", Iter: it.Iter, Source: it.Source})
		}
	}

	// Deterministic hill climb: evaluate the full neighborhood of the
	// current plan, move to the best neighbor while it improves, restart
	// from a perturbation of the global best when stuck.
	restarts := 0
	converged := false
	for e.evals < par.Budget {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		nbrs := neighbors(cur.Plan, e.sites, e.ops, e.windows)
		truncated, err := e.evalBatch(ctx, nbrs, "climb")
		if err != nil {
			return nil, err
		}
		var bestN *Iteration
		for _, p := range nbrs {
			if it, ok := e.cache[p.key()]; ok && (bestN == nil || e.better(it, bestN)) {
				bestN = it
			}
		}
		if bestN != nil && e.better(bestN, cur) {
			bestN.Accepted = true
			cur = bestN
			e.emit(evMove{Event: "move", Iter: bestN.Iter, Source: bestN.Source})
			continue
		}
		if truncated {
			// Budget ran out before the whole neighborhood was seen.
			break
		}
		// Local optimum: every neighbor evaluated, none better.
		if restarts >= par.Restarts || e.evals >= par.Budget {
			converged = true
			break
		}
		restarts++
		rp, ok := e.perturb()
		if !ok {
			converged = true
			break
		}
		if _, err := e.evalBatch(ctx, []Plan{rp}, "restart"); err != nil {
			return nil, err
		}
		it := e.cache[rp.key()]
		if it == nil {
			break
		}
		it.Accepted = true
		cur = it
		e.emit(evMove{Event: "move", Iter: it.Iter, Source: it.Source})
	}

	return e.finish(probe, converged)
}

// baselineReport returns the baseline run's line report: rec's, when
// the evaluator ran the baseline in process and so attached rec to it,
// or else a separate probe run of the baseline plan under line-report
// telemetry (the cluster evaluator runs every eval on a shard).
func (e *engine) baselineReport(ctx context.Context, rec *telemetry.Recorder, baseline Plan) (*telemetry.LineReport, error) {
	if rec.Attached() {
		return rec.LineReport(telemetry.ReportLines), nil
	}
	sp := e.specFor(baseline)
	sp.Telemetry = &scenario.TelemetrySpec{LineReport: true}
	return e.ev.Probe(ctx, sp, e.par.Quick)
}

// searchWindows builds the searched window list: the base spec's own
// placement first, then the extra candidates, deduplicated in order.
func searchWindows(baseWin string, extra []string) []string {
	out := []string{baseWin}
	for _, w := range extra {
		if !containsStr(out, w) {
			out = append(out, w)
		}
	}
	return out
}

func (e *engine) specFor(p Plan) scenario.Spec {
	return e.base.WithPlan(p.Window, p.Table)
}

// better reports whether a beats b: objective first (direction from
// Maximize), elapsed as the physical tiebreak, then the canonical plan
// key so the order is total and the winner unique.
func (e *engine) better(a, b *Iteration) bool {
	oa, ob := a.Objective, b.Objective
	if e.par.Maximize {
		oa, ob = ob, oa
	}
	if oa != ob {
		return oa < ob
	}
	ea, aok := a.Metrics["elapsed"]
	eb, bok := b.Metrics["elapsed"]
	if aok && bok && ea != eb {
		return ea < eb
	}
	return a.Plan.key() < b.Plan.key()
}

// evalBatch evaluates the uncached plans in order, bounded by
// par.Parallel in flight, and records results in candidate order so
// the trajectory never depends on completion timing. It reports
// whether the remaining budget truncated the batch.
func (e *engine) evalBatch(ctx context.Context, plans []Plan, source string) (truncated bool, err error) {
	var fresh []Plan
	seen := map[string]bool{}
	for _, p := range plans {
		k := p.key()
		if seen[k] {
			continue
		}
		seen[k] = true
		if _, ok := e.cache[k]; ok {
			e.hits++
			continue
		}
		fresh = append(fresh, p)
	}
	if rem := e.par.Budget - e.evals; len(fresh) > rem {
		fresh = fresh[:rem]
		truncated = true
	}
	if len(fresh) == 0 {
		return truncated, nil
	}

	metrics := make([]scenario.Metrics, len(fresh))
	errs := make([]error, len(fresh))
	sem := make(chan struct{}, e.par.Parallel)
	var wg sync.WaitGroup
	for i := range fresh {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// One span per candidate evaluation: the fan-out's width and
			// stragglers become visible on the search job's trace.
			ctx, sp := obs.Start(ctx, "autotune.eval",
				obs.KV("plan", fresh[i].key()), obs.KV("source", source))
			metrics[i], errs[i] = e.ev.Eval(ctx, e.specFor(fresh[i]), e.par.Quick)
			sp.End()
		}(i)
	}
	wg.Wait()

	for i, p := range fresh {
		if errs[i] != nil {
			return truncated, fmt.Errorf("eval %s: %w", p.key(), errs[i])
		}
		e.evals++
		obj, ok := metrics[i][e.par.Objective]
		if !ok {
			return truncated, fmt.Errorf("eval %s: metrics missing objective %q", p.key(), e.par.Objective)
		}
		it := &Iteration{Iter: len(e.iters), Source: source, Plan: p, Metrics: metrics[i], Objective: obj}
		if e.best == nil || e.better(it, e.best) {
			e.best = it
			it.Best = true
		}
		e.iters = append(e.iters, it)
		e.cache[p.key()] = it
		e.emit(evEval{Event: "eval", Iter: it.Iter, Source: source, Plan: p,
			Objective: obj, Best: it.Best})
	}
	return truncated, nil
}

// perturb draws a one-site mutation of the global best plan that has
// not been evaluated yet. Draw count is bounded so a fully explored
// space ends the restarts instead of spinning.
func (e *engine) perturb() (Plan, bool) {
	if len(e.ops) < 2 {
		return Plan{}, false
	}
	for try := 0; try < 16; try++ {
		t := cloneTable(e.best.Plan.Table)
		site := e.sites[e.rng.Intn(len(e.sites))]
		op := e.ops[e.rng.Intn(len(e.ops))]
		if op == t[site] {
			continue
		}
		t[site] = op
		p := Plan{Window: e.best.Plan.Window, Table: t}
		if _, ok := e.cache[p.key()]; ok {
			continue
		}
		return p, true
	}
	return Plan{}, false
}

func (e *engine) finish(probe *Probe, converged bool) (*Result, error) {
	winSpec := e.specFor(e.best.Plan)
	canon, err := winSpec.Canonical()
	if err != nil {
		return nil, err
	}
	t := &Trajectory{
		Version:   TrajectoryVersion,
		Workload:  e.base.Workload.Name,
		Objective: e.par.Objective,
		Maximize:  e.par.Maximize,
		Budget:    e.par.Budget,
		Seed:      e.par.Seed,
		Quick:     e.par.Quick,
		Sites:     e.sites,
		Windows:   e.windows,
		Probe:     probe,
		Evals:     e.evals,
		CacheHits: e.hits,
		Converged: converged,
		Winner: Winner{
			Iter:      e.best.Iter,
			Plan:      e.best.Plan,
			Metrics:   e.best.Metrics,
			Objective: e.best.Objective,
			Spec:      json.RawMessage(canon),
		},
	}
	t.Iterations = make([]Iteration, len(e.iters))
	for i, it := range e.iters {
		t.Iterations[i] = *it
	}
	e.emit(evDone{Event: "done", Evals: e.evals, CacheHits: e.hits,
		Converged: converged, Winner: e.best.Iter, Plan: e.best.Plan,
		Objective: e.best.Objective})
	return &Result{Trajectory: t, WinnerSpec: winSpec}, nil
}

// emit writes one NDJSON progress line; progress failures are not the
// search's problem, so write errors are dropped.
func (e *engine) emit(ev any) {
	if e.progress == nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		return
	}
	e.progress.Write(append(b, '\n'))
}
