package main

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"sync"
	"time"

	"prestores/internal/autotune"
	"prestores/internal/checkpoint"
	"prestores/internal/scenario"
	"prestores/internal/sim"
	"prestores/internal/telemetry"
	_ "prestores/internal/workloads/clht"
	_ "prestores/internal/workloads/ycsb"
)

// kv-tune: a closed loop of autotune searches, one at a time, over
// single-point YCSB/CLHT specs on machine-a's PMEM window. One
// checkpoint store lives for the whole run, as in a daemon; each
// search's specs differ in seed, so each search pays one cold load and
// forks its other candidates from that warm state.

const (
	kvRecords      = 10000
	kvRecordsSmall = 4000
	kvParallel     = 1
	kvBudget       = 8
	kvStoreBytes   = 64 << 20 // holds the current search's warm state and one more
)

func kvSpec(records int, seed uint64) scenario.Spec {
	return evalSpec("machine-a", "ycsb", scenario.Params{
		"store": "clht", "records": records, "ops": 2000, "threads": 2,
		"mix": "A", "window": sim.WindowPMEM, "seed": seed % 1e9,
	})
}

func kvParams(seed uint64) autotune.Params {
	return autotune.Params{Seed: seed, Objective: "device_write_bytes", Budget: kvBudget, Parallel: kvParallel}
}

// timedEvaluator wraps autotune.Local: it times every candidate eval and
// probe, records them as spans under the search, and keeps the sim
// counts of each candidate's machine so the winner can be checked
// against a cold re-run.
type timedEvaluator struct {
	tr         *tracer
	op, parent uint64

	mu      sync.Mutex
	evalMs  []float64
	probeMs []float64
	counts  map[string]simCounts // canonical spec → its machine's counts
}

func specKey(sp scenario.Spec) string {
	b, err := sp.Canonical()
	if err != nil {
		return "invalid: " + err.Error()
	}
	return string(b)
}

func (e *timedEvaluator) Eval(ctx context.Context, sp scenario.Spec, quick bool) (scenario.Metrics, error) {
	var m *sim.Machine
	ctx = scenario.WithObserver(ctx, func(x *sim.Machine) { m = x })
	h := e.tr.begin(e.op, e.parent, "autotune.eval")
	t := time.Now()
	met, err := autotune.Local{}.Eval(ctx, sp, quick)
	d := time.Since(t)
	h.end()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.evalMs = append(e.evalMs, ms(d))
	if m != nil && err == nil {
		e.counts[specKey(sp)] = countMachine(m)
	}
	return met, err
}

func (e *timedEvaluator) Probe(ctx context.Context, sp scenario.Spec, quick bool) (*telemetry.LineReport, error) {
	h := e.tr.begin(e.op, e.parent, "autotune.probe")
	t := time.Now()
	rep, err := autotune.Local{}.Probe(ctx, sp, quick)
	d := time.Since(t)
	h.end()
	e.mu.Lock()
	e.probeMs = append(e.probeMs, ms(d))
	e.mu.Unlock()
	return rep, err
}

// kvSearch is one finished search with what its checks need.
type kvSearch struct {
	res    *autotune.Result
	ev     *timedEvaluator
	hits   uint64
	misses uint64
	took   time.Duration
	counts simCounts // every machine the search built
}

func search(ctx context.Context, store *checkpoint.Store, log *machineLog, tr *tracer, sp scenario.Spec, par autotune.Params) (*kvSearch, error) {
	op := tr.newOp()
	root := tr.root(op, "kvtune.search")
	ev := &timedEvaluator{tr: tr, op: op, parent: root.id(), counts: map[string]simCounts{}}
	view := store.View()
	log.take()
	t := time.Now()
	res, err := autotune.Run(checkpoint.NewContext(ctx, view), sp, par, ev, nil)
	took := time.Since(t)
	root.end()
	if err != nil {
		return nil, err
	}
	return &kvSearch{res: res, ev: ev, hits: view.Hits(), misses: view.Misses(), took: took, counts: log.take()}, nil
}

// checkWinner re-runs the winner spec cold (no checkpoint view) and
// compares metrics and sim counts with the search's warm evaluation.
func checkWinner(r *run, i int, s *kvSearch) {
	var m *sim.Machine
	ctx := scenario.WithObserver(context.Background(), func(x *sim.Machine) { m = x })
	got, err := s.res.WinnerSpec.EvalPoint(ctx, false)
	if err != nil {
		r.fail("search %d: cold winner eval: %v", i, err)
		return
	}
	want := s.res.Trajectory.Winner.Metrics
	if !reflect.DeepEqual(map[string]float64(got), map[string]float64(want)) {
		r.fail("search %d: cold winner metrics %v != search's %v", i, got, want)
		return
	}
	warm, ok := s.ev.counts[specKey(s.res.WinnerSpec)]
	if !ok {
		r.fail("search %d: winner spec was never evaluated by the search", i)
		return
	}
	if cold := countMachine(m); cold != warm {
		r.fail("search %d: cold winner sim counts %v != warm %v", i, cold, warm)
	}
}

func runKVTune(r *run, small bool) {
	ctx := context.Background()
	log := observeMachines()
	defer log.close()
	records := kvRecords
	if small {
		records = kvRecordsSmall
	}

	// Set-up: a fresh store plus one small warm-up search, so lazy
	// initialisation is paid before timing. Repeated; the warm-up is
	// deterministic, so every repetition must build the same machines.
	// Its inputs are the same for every benchmark seed, so set-up time
	// does not vary with the seed.
	var store *checkpoint.Store
	var ref simCounts
	setups := setupReps
	if small {
		setups = 1
	}
	for k := 0; k < setups; k++ {
		t := time.Now()
		st, err := checkpoint.NewStore(kvStoreBytes, "")
		if err != nil {
			r.fail("checkpoint store: %v", err)
			return
		}
		warm, err := search(ctx, st, log, nil, kvSpec(kvRecordsSmall, 1), kvParams(1))
		if err != nil {
			r.fail("warm-up search: %v", err)
			return
		}
		r.setupS = append(r.setupS, time.Since(t).Seconds())
		store = st
		if k == 0 {
			ref = warm.counts
		} else {
			r.attempts++
			if warm.counts != ref {
				r.fail("set-up %d: warm-up sim counts %v != first set-up's %v", k, warm.counts, ref)
			}
		}
	}

	searches := 0
	var searchS, evalMs, probeMs, selfMs []float64
	r.startMem()
	deadline := time.Now().Add(r.window)
	for i := 0; (small && i < 1) || (!small && time.Now().Before(deadline)); i++ {
		r.attempts++
		tr := r.traceOp(i)
		sp := kvSpec(records, seedFor(r.seed, "kv-spec", i))
		s, err := search(ctx, store, log, tr, sp, kvParams(seedFor(r.seed, "kv-search", i)))
		if err != nil {
			r.fail("search %d: %v", i, err)
			continue
		}
		r.recordOp(i, s.took)
		if i == 0 {
			r.counts = s.counts
			tj := s.res.Trajectory
			r.layer["autotune.evals"] = float64(tj.Evals)
			r.layer["autotune.plan_cache_hits"] = float64(tj.CacheHits)
			r.layer["checkpoint.hits"] = float64(s.hits)
			r.layer["checkpoint.misses"] = float64(s.misses)
			r.layer["checkpoint.hit_ratio"] = ratio(s.hits, s.misses)
			r.layer["checkpoint.bytes"] = float64(store.Bytes())
		}
		if tr != nil {
			searchS = append(searchS, s.took.Seconds())
			evalMs = append(evalMs, s.ev.evalMs...)
			probeMs = append(probeMs, s.ev.probeMs...)
		}
		searches++
		// The check runs between searches, untimed, so the window
		// covers the same stretch of host time whatever it costs; the
		// log would keep its cold machine alive, so it is forgotten.
		r.check(func() {
			checkWinner(r, i, s)
			log.machines()
		})
	}
	r.endMem(searches)

	if r.tr != nil {
		selfMs = selfTimes(r.tr.snapshot())["kvtune.search"]
		r.layer["kvtune.search_s"] = percentile(searchS, 50)
		r.layer["autotune.eval_ms"] = percentile(evalMs, 50)
		r.layer["autotune.probe_ms"] = percentile(probeMs, 50)
		r.layer["autotune.self_ms"] = percentile(selfMs, 50)
	}
	fmt.Fprintf(os.Stderr, "kv-tune: %d searches, %d set-ups\n", searches, len(r.setupS))
}
