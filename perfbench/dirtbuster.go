package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"time"

	"prestores/internal/dirtbuster"
	"prestores/internal/scenario"
	"prestores/internal/sim"
	"prestores/internal/trace"
)

// dirtbuster: record a seeded YCSB run through scenario.WithObserver
// into an in-memory chunked (PST2) trace with trace.Writer's hook, then
// run the streaming DirtBuster analysis over it. Every pass records the
// same seeded run, so each must reproduce the set-up's trace bytes, sim
// counts and report exactly.

const (
	dbRecords = 30000
	dbApp     = "ycsb"
)

func dbSpec(records int, seed uint64) scenario.Spec {
	return evalSpec("machine-a", "ycsb", scenario.Params{
		"store": "clht", "records": records, "ops": 2000, "threads": 2,
		"mix": "A", "window": sim.WindowPMEM, "seed": seedFor(seed, "dirtbuster", 0) % 1e9,
	})
}

type recording struct {
	data    []byte
	records uint64
	line    uint64
	counts  simCounts
	took    time.Duration
}

// record runs sp with its machine hooked to a trace writer. The buffer
// starts at size bytes, so a pass whose size is known does not time
// the buffer's regrowth.
func record(sp scenario.Spec, log *machineLog, size int) (*recording, error) {
	buf := bytes.NewBuffer(make([]byte, 0, size))
	w := trace.NewWriter(buf, trace.WriterOptions{})
	rec := &recording{}
	ctx := scenario.WithObserver(context.Background(), func(m *sim.Machine) {
		m.SetHook(w.Hook())
		rec.line = m.LineSize()
	})
	log.take()
	t := time.Now()
	_, err := sp.EvalPoint(ctx, false)
	if err == nil {
		err = w.Close()
	}
	rec.took = time.Since(t)
	rec.counts = log.take()
	if err != nil {
		return nil, err
	}
	rec.data, rec.records = buf.Bytes(), w.Records()
	return rec, nil
}

func analyze(rec *recording) (*dirtbuster.Report, error) {
	open := func() (dirtbuster.ChunkIter, error) { return trace.NewChunkReader(bytes.NewReader(rec.data)) }
	return dirtbuster.AnalyzeChunkSource(dbApp, open, rec.line, dirtbuster.Config{})
}

func runDirtbuster(r *run, small bool) {
	log := observeMachines()
	defer log.close()
	// The short pass records the full-size run too: it is the only
	// source of the trace and dirtbuster layer metrics when dirtbuster is
	// not the main workload.
	sp := dbSpec(dbRecords, r.seed)

	// Set-up: record the run once and analyze it with the monolithic
	// in-memory AnalyzeTrace; its report is what every chunked pass must
	// reproduce. Repeated; each repetition must record the same bytes.
	var ref *recording
	var refHash [32]byte
	var refReport string
	setups := setupReps
	if small {
		setups = 1
	}
	for k := 0; k < setups; k++ {
		t := time.Now()
		rec, err := record(sp, log, 0)
		if err != nil {
			r.fail("reference recording: %v", err)
			return
		}
		tb, err := trace.Decode(bytes.NewReader(rec.data))
		if err != nil {
			r.fail("decoding the reference trace: %v", err)
			return
		}
		report := dirtbuster.AnalyzeTrace(dbApp, tb, rec.line, dirtbuster.Config{}).Render()
		r.setupS = append(r.setupS, time.Since(t).Seconds())
		if k == 0 {
			ref, refHash, refReport = rec, sha256.Sum256(rec.data), report
			continue
		}
		r.attempts++
		if sha256.Sum256(rec.data) != refHash || rec.counts != ref.counts || report != refReport {
			r.fail("set-up %d: the recording or its report differs from the first set-up's", k)
		}
	}
	r.counts = ref.counts

	var recordS, analyzeS []float64
	var last *recording
	passes := 0
	r.startMem()
	deadline := time.Now().Add(r.window)
	for i := 0; (small && i < 1) || (!small && time.Now().Before(deadline)); i++ {
		r.attempts++
		passes++
		tr := r.traceOp(i)
		op := tr.newOp()
		root := tr.root(op, "dirtbuster.pass")
		h := tr.begin(op, root.id(), "trace.record")
		rec, err := record(sp, log, len(ref.data))
		h.end()
		if err != nil {
			root.end()
			r.fail("pass %d: recording: %v", i, err)
			continue
		}
		h = tr.begin(op, root.id(), "dirtbuster.analyze")
		t := time.Now()
		rep, err := analyze(rec)
		took := time.Since(t)
		h.end()
		root.end()
		if err != nil {
			r.fail("pass %d: analysis: %v", i, err)
			continue
		}
		r.recordOp(i, rec.took+took)
		if tr != nil {
			recordS = append(recordS, rec.took.Seconds())
			analyzeS = append(analyzeS, took.Seconds())
		}
		switch {
		case sha256.Sum256(rec.data) != refHash:
			r.fail("pass %d: trace bytes differ from the reference recording", i)
		case rec.counts != ref.counts:
			r.fail("pass %d: sim counts %v != reference %v", i, rec.counts, ref.counts)
		case rep.Render() != refReport:
			r.fail("pass %d: chunked report differs from the monolithic AnalyzeTrace report", i)
		}
		last = rec
	}
	r.endMem(passes)

	if r.tr != nil && last != nil {
		mrec := float64(last.records) / 1e6
		r.layer["dirtbuster.record_mrec_per_s"] = mrec / percentile(recordS, 50)
		r.layer["dirtbuster.analyze_mrec_per_s"] = mrec / percentile(analyzeS, 50)
		traceLayers(r, sp, last, percentile(recordS, 50), refReport)
	}
	fmt.Fprintf(os.Stderr, "dirtbuster: %d passes of %d trace records, %d set-ups\n", passes, ref.records, len(r.setupS))
}

// traceLayers times the trace and DirtBuster stages one at a time over
// a finished recording: reading chunks, re-appending records, and the
// three map/reduce steps (per-chunk Stats, per-chunk Partial, in-order
// replay of the partials). Rates are over the trace's record count. The
// hook overhead compares recordS, the median hooked recording, with
// the same run unhooked.
func traceLayers(r *run, sp scenario.Spec, rec *recording, recordS float64, refReport string) {
	mrec := float64(rec.records) / 1e6
	rate := func(d time.Duration) float64 { return mrec / d.Seconds() }
	const reps = 3
	var read, appendT, stats, partial, replay, plain []float64
	for k := 0; k < reps; k++ {
		t := time.Now()
		cr, err := trace.NewChunkReader(bytes.NewReader(rec.data))
		if err != nil {
			r.fail("chunk reader: %v", err)
			return
		}
		var chunks []*trace.Chunk
		for {
			c, err := cr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				r.fail("reading chunks: %v", err)
				return
			}
			chunks = append(chunks, c)
		}
		read = append(read, rate(time.Since(t)))

		t = time.Now()
		w := trace.NewWriter(io.Discard, trace.WriterOptions{})
		for _, c := range chunks {
			for _, x := range c.Records {
				w.Append(x, c.FuncName(x.Fn))
			}
		}
		if err := w.Close(); err != nil {
			r.fail("re-appending records: %v", err)
			return
		}
		appendT = append(appendT, rate(time.Since(t)))

		t = time.Now()
		st := dirtbuster.NewStats()
		for _, c := range chunks {
			st.AddChunk(c)
		}
		stats = append(stats, rate(time.Since(t)))

		plan := st.Plan(dbApp, rec.line, dirtbuster.Config{})
		t = time.Now()
		parts := make([]*dirtbuster.Partial, len(chunks))
		for i, c := range chunks {
			parts[i] = plan.AnalyzeChunk(c)
		}
		partial = append(partial, rate(time.Since(t)))

		t = time.Now()
		a := plan.NewAnalysis()
		for _, pt := range parts {
			if err := a.Apply(pt); err != nil {
				r.fail("replaying partials: %v", err)
				return
			}
		}
		replay = append(replay, rate(time.Since(t)))
		r.attempts++
		if got := a.Report().Render(); got != refReport {
			r.fail("map/reduce report differs from the monolithic report")
		}

		t = time.Now()
		if _, err := sp.EvalPoint(context.Background(), false); err != nil {
			r.fail("unhooked run: %v", err)
			return
		}
		plain = append(plain, time.Since(t).Seconds())
	}
	r.layer["trace.read_mrec_per_s"] = percentile(read, 50)
	r.layer["trace.append_mrec_per_s"] = percentile(appendT, 50)
	r.layer["trace.bytes_per_rec"] = float64(len(rec.data)) / float64(rec.records)
	r.layer["trace.hook_overhead"] = recordS/percentile(plain, 50) - 1
	r.layer["dirtbuster.stats_mrec_per_s"] = percentile(stats, 50)
	r.layer["dirtbuster.partial_mrec_per_s"] = percentile(partial, 50)
	r.layer["dirtbuster.replay_mrec_per_s"] = percentile(replay, 50)
}
