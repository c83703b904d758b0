// Command perfbench is the repository benchmark: it runs one seeded
// workload against the simulator, the autotuner, the daemon and the
// trace pipeline, checks every output, and prints end-to-end metrics
// (untraced run) or per-layer metrics (traced run) as one JSON line.
//
//	bash perfbench/run.sh --workload kv-tune --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads, the metrics and
// which layer metric should move which end-to-end metric.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one seeded input set. run executes it on r; small asks
// for a short, fixed-size pass (used to measure the layers a traced
// run's main workload bypasses).
type workload struct {
	name string
	run  func(r *run, small bool)
}

var workloads = []workload{
	{"kv-tune", runKVTune},
	{"service", runService},
	{"dirtbuster", runDirtbuster},
}

// endToEnd and perLayer list the metrics every untraced and traced run
// prints, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
}

type metricDef struct{ name, unit string }

// setupReps is how many times each workload sets up on fresh state;
// setup_s is the median.
const setupReps = 5

// run is the state of one workload execution.
type run struct {
	seed     uint64
	window   time.Duration
	tr       *tracer // nil in the untraced run
	attempts int
	failures []string
	setupS   []float64
	opMs     []float64 // op latencies of untraced ops
	tracedMs []float64 // op latencies of traced ops (traced run only)
	layer    map[string]float64
	counts   simCounts
	memStart runtime.MemStats
	// allocation and GC cycles of checks run inside the window, left
	// out of the per-op figures
	skipAlloc uint64
	skipGC    uint32
}

func newRun(seed uint64, window time.Duration, tr *tracer) *run {
	return &run{seed: seed, window: window, tr: tr, layer: map[string]float64{}}
}

// fail records a failed check; every failure counts one failed op.
func (r *run) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// traceOp reports whether op i is traced. In the traced run every
// other op is traced, so the untraced ones in between give the tracing
// overhead from the same process, inputs and host state.
func (r *run) traceOp(i int) *tracer {
	if r.tr == nil || i%2 == 1 {
		return nil
	}
	return r.tr
}

func (r *run) recordOp(i int, d time.Duration) {
	if r.traceOp(i) != nil {
		r.tracedMs = append(r.tracedMs, ms(d))
	} else {
		r.opMs = append(r.opMs, ms(d))
	}
}

// absorb adds o's attempts and failures to r and its layer metrics to
// values.
func (r *run) absorb(o *run, values map[string]float64) {
	r.attempts += o.attempts
	r.failures = append(r.failures, o.failures...)
	for k, v := range o.layer {
		values[k] = v
	}
}

// startMem / endMem bracket the measured window for the Go-runtime
// per-op figures.
func (r *run) startMem() { runtime.ReadMemStats(&r.memStart) }

func (r *run) endMem(ops int) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if ops == 0 {
		ops = 1
	}
	r.layer["go.alloc_mb_per_op"] = float64(m.TotalAlloc-r.memStart.TotalAlloc-r.skipAlloc) / (1 << 20) / float64(ops)
	r.layer["go.gc_cycles_per_op"] = float64(m.NumGC-r.memStart.NumGC-r.skipGC) / float64(ops)
}

// check runs a check inside the measured window and leaves its
// allocation and GC cycles out of the per-op figures.
func (r *run) check(f func()) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	r.skipAlloc += b.TotalAlloc - a.TotalAlloc
	r.skipGC += b.NumGC - a.NumGC
}

// seedFor derives an independent 64-bit seed for stream i of purpose
// tag from the benchmark seed.
func seedFor(seed uint64, tag string, i int) uint64 {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s/%d", seed, tag, i)))
	v := uint64(0)
	for _, b := range h[:8] {
		v = v<<8 | uint64(b)
	}
	return v
}

func main() {
	name := flag.String("workload", "", "workload: kv-tune, service or dirtbuster")
	seed := flag.Uint64("seed", 1, "benchmark seed; every input is derived from it")
	seconds := flag.Float64("seconds", 20, "length of the measured window")
	traced := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the span artifact")
	commit := flag.String("commit", "unknown", "source commit, for the result stamp")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (kv-tune|service|dirtbuster), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	window := time.Duration(*seconds * float64(time.Second))

	stamp := map[string]string{
		"workload":   wl.name,
		"seed":       strconv.FormatUint(*seed, 10),
		"seconds":    strconv.FormatFloat(*seconds, 'g', -1, 64),
		"trace":      strconv.Itoa(*traced),
		"commit":     *commit,
		"source":     sourceDigest("."),
		"go":         runtime.Version(),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
	}
	stampJSON, _ := json.Marshal(stamp)
	fmt.Printf("# stamp %s\n", stampJSON)

	var (
		r      *run
		values = map[string]float64{}
		units  = map[string]string{}
	)
	if *traced == 0 {
		r = newRun(*seed, window, nil)
		wl.run(r, false)
		values["setup_s"] = percentile(r.setupS, 50)
		values["peak_rss_mb"] = peakRSSMB()
		lat := summarize(r.opMs)
		values["op_p50_ms"] = lat.P50
		values["op_p90_ms"] = percentile(r.opMs, 90)
		for _, m := range endToEnd {
			units[m.name] = m.unit
		}
		fmt.Fprintf(os.Stderr, "op latency: n=%d p50=%.3f ms p90=%.3f ms, quartile spread within the run %.3f",
			lat.N, lat.P50, values["op_p90_ms"], spread(r.opMs))
		if lat.TailPct > 0 {
			fmt.Fprintf(os.Stderr, " (highest percentile with ten samples beyond it: p%g=%.3f ms)", lat.TailPct, lat.Tail)
		}
		fmt.Fprintln(os.Stderr)
	} else {
		tr := newTracer()
		r = newRun(*seed, window, tr)
		// Layers the main workload bypasses are measured by a short pass
		// of the workload that owns them, so every per-layer metric is
		// measured on every run; the main workload's own figures win.
		for _, o := range workloads {
			if o.name != wl.name {
				small := newRun(*seed, window, tr)
				o.run(small, true)
				r.absorb(small, values)
			}
		}
		microLayers(r)
		own := newRun(*seed, window, tr)
		wl.run(own, false)
		own.counts.metrics(own.layer)
		if t, u := percentile(own.tracedMs, 50), percentile(own.opMs, 50); u > 0 {
			own.layer["spans.overhead_pct"] = (t/u - 1) * 100
		}
		for k, v := range r.layer {
			values[k] = v
		}
		r.absorb(own, values)
		for _, m := range perLayer {
			units[m.name] = m.unit
		}
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-%d.json", wl.name, *seed))
		if err := writeSpans(path, tr.snapshot(), stamp); err != nil {
			r.fail("writing span artifact: %v", err)
		} else {
			fmt.Fprintf(os.Stderr, "spans: %s\n", path)
		}
	}

	metrics := map[string]any{}
	for name, unit := range units {
		v, ok := values[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s was not measured", name)
			v = 0
		}
		metrics[name] = map[string]any{"value": v, "unit": unit}
	}
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "FAIL: %s\n", f)
	}
	failed := len(r.failures)
	if r.attempts < failed {
		r.attempts = failed
	}
	if r.attempts == 0 {
		r.attempts = 1
		failed = 1
		fmt.Fprintln(os.Stderr, "FAIL: no op was attempted")
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if _, ok := units[k]; ok {
			fmt.Fprintf(os.Stderr, "  %-34s %.6g %s\n", k, values[k], units[k])
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": r.attempts,
		"failed":    failed,
		"metrics":   metrics,
	})
	fmt.Println(string(line))
}

func writeSpans(path string, spans []span, meta map[string]string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, spans, meta); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// sourceDigest hashes the Go sources and module files under root, so a
// result names the code it measured even where no VCS metadata exists.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
