package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"sync"
	"time"

	"prestores/internal/obs"
	"prestores/internal/scenario"
	"prestores/internal/server"
	"prestores/internal/server/cluster"
	_ "prestores/internal/workloads/micro"
	"prestores/internal/xrand"
)

// service: an open loop of POST /v1/eval?stream=1 requests at a fixed
// rate from one client with two connections, against an
// in-process coordinator fronting two in-process daemons (one worker
// each) on loopback. Most requests repeat a small hot set and are
// result-cache hits; the rest are fresh machine-b specs, which miss
// and run the simulator's read/fence/directory side. A federated
// /metrics scrape runs once per second.

const (
	svcRate        = 20 // requests per second
	svcMissEvery   = 5  // every fifth request is a fresh spec
	svcSmallReqs   = 40 // requests in the short layer pass
	svcDirectPairs = 40 // via-coordinator / direct hit pairs (traced run)
	svcCkptBytes   = 64 << 20
)

// hotSpecs is the small repeated set; every one is cheap to simulate.
func hotSpecs(seed uint64) []scenario.Spec {
	s := func(i int) uint64 { return seedFor(seed, "hot", i) % 1e9 }
	return []scenario.Spec{
		evalSpec("machine-b-slow", "listing2", scenario.Params{"elements": 20000, "iters": 4000, "reads": 4, "seed": s(0)}),
		evalSpec("machine-b-fast", "listing2", scenario.Params{"elements": 20000, "iters": 4000, "reads": 8, "seed": s(1)}),
		evalSpec("machine-b-fast", "ycsb", scenario.Params{"records": 4000, "ops": 500, "threads": 2, "mix": "C", "window": "fpga", "seed": s(2)}),
		evalSpec("machine-b-slow", "ycsb", scenario.Params{"records": 4000, "ops": 500, "threads": 2, "mix": "B", "window": "fpga", "seed": s(3)}),
	}
}

// missSpec returns the j-th fresh spec: listing2 with a reads value, or
// a YCSB read-heavy mix on the FPGA window, on either machine-b. The
// kinds cycle with j and only the workload seed comes from the benchmark
// seed, so every run has the same mix of costs. The two kinds are sized
// to cost about the same on a daemon, so the misses' latencies form one
// cluster and op_p90_ms does not sit on the edge between two.
func missSpec(seed uint64, j int) scenario.Spec {
	sd := seedFor(seed, "miss", j) % 1e9
	preset := []string{"machine-b-slow", "machine-b-fast"}[j%2]
	if j/2%2 == 0 {
		reads := []int{0, 4, 8, 16}[j/4%4]
		return evalSpec(preset, "listing2", scenario.Params{"reads": reads, "iters": 40000, "seed": sd})
	}
	mix := []string{"C", "B"}[j/4%2]
	return evalSpec(preset, "ycsb", scenario.Params{"records": 5000, "ops": 2000, "threads": 2, "mix": mix, "window": "fpga", "seed": sd})
}

func evalSpec(preset, wl string, params scenario.Params) scenario.Spec {
	return scenario.Spec{
		Version:  scenario.Version,
		Name:     "perfbench",
		Machine:  scenario.MachineSpec{Preset: preset},
		Workload: scenario.WorkloadSpec{Name: wl, Params: params},
		Policy: scenario.PolicySpec{
			Ops:     []string{"none"},
			Columns: []scenario.Column{{Title: "elapsed", Op: "none", Metric: "elapsed"}},
		},
	}
}

func evalBody(sp scenario.Spec) ([]byte, error) {
	canon, err := sp.Canonical()
	if err != nil {
		return nil, err
	}
	return json.Marshal(map[string]any{"spec": json.RawMessage(canon), "quick": false})
}

// fleet is the in-process cluster: two daemons and a coordinator, each
// behind its own loopback HTTP server.
type fleet struct {
	shards []*server.Server
	coord  *cluster.Coordinator
	https  []*http.Server
	urls   []string // shard base URLs, then the coordinator's
	// The client holds one connection for hot-set repeats, scrapes and
	// control calls (fast) and one for fresh specs (slow): a fresh spec
	// keeps its connection busy while it streams, so on a shared pair
	// hits would mostly measure waiting behind it.
	fast, slow *http.Client
}

func oneConn() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return hs, "http://" + ln.Addr().String(), nil
}

func startFleet() (*fleet, error) {
	f := &fleet{fast: oneConn(), slow: oneConn()}
	for i := 0; i < 2; i++ {
		s := server.New(server.Config{Workers: 1, CheckpointBytes: svcCkptBytes})
		hs, url, err := serve(s.Handler())
		f.shards = append(f.shards, s)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.https = append(f.https, hs)
		f.urls = append(f.urls, url)
	}
	c, err := cluster.New(cluster.Config{Shards: append([]string(nil), f.urls...)})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.coord = c
	hs, url, err := serve(c.Handler())
	if err != nil {
		f.stop()
		return nil, err
	}
	f.https = append(f.https, hs)
	f.urls = append(f.urls, url)
	for _, u := range f.urls {
		resp, err := f.fast.Get(u + "/healthz")
		if err != nil {
			f.stop()
			return nil, err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			f.stop()
			return nil, fmt.Errorf("%s/healthz: %s", u, resp.Status)
		}
	}
	return f, nil
}

func (f *fleet) coordURL() string { return f.urls[len(f.urls)-1] }

// stop shuts every HTTP server, the coordinator and the daemons down and
// waits for their goroutines.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	f.fast.CloseIdleConnections()
	f.slow.CloseIdleConnections()
	for i := len(f.https) - 1; i >= 0; i-- {
		f.https[i].Shutdown(ctx)
	}
	if f.coord != nil {
		f.coord.Shutdown(ctx)
	}
	for _, s := range f.shards {
		s.Shutdown(ctx)
	}
}

// evalReply is the outcome of one POST /v1/eval?stream=1.
type evalReply struct {
	job     server.JobStatus
	metrics scenario.Metrics
}

var errRejected = errors.New("429 queue full")

// postEval submits body to base over c and reads the answer: an NDJSON
// stream whose "done" event carries the job, or a plain job handle for
// a result-cache hit.
func postEval(c *http.Client, base string, body []byte) (*evalReply, error) {
	resp, err := c.Post(base+"/v1/eval?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	rep := &evalReply{}
	if resp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, resp.Body)
		return rep, errRejected
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return rep, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	dec := json.NewDecoder(resp.Body)
	var final *server.JobStatus
	for {
		var v struct {
			Event string            `json:"event"`
			Job   *server.JobStatus `json:"job"`
			server.JobStatus
		}
		if err := dec.Decode(&v); err == io.EOF {
			break
		} else if err != nil {
			return rep, fmt.Errorf("reading reply: %w", err)
		}
		switch {
		case v.Event == "":
			js := v.JobStatus
			final = &js
		case v.Event == "done" || v.Event == "status" && v.Job != nil && v.Job.Result != nil:
			final = v.Job
		}
	}
	if final == nil || final.State != "done" || final.Result == nil {
		return rep, fmt.Errorf("job did not finish: %+v", final)
	}
	rep.job = *final
	if err := json.Unmarshal([]byte(final.Result.Output), &rep.metrics); err != nil {
		return rep, fmt.Errorf("decoding metrics %q: %w", final.Result.Output, err)
	}
	return rep, nil
}

// scrape fetches the coordinator's federated /metrics and parses it.
func (f *fleet) scrape() ([]*obs.Family, error) {
	resp, err := f.fast.Get(f.coordURL() + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return obs.ParseMetrics(resp.Body)
}

func sumFamily(fams []*obs.Family, name string) float64 {
	var sum float64
	for _, fam := range fams {
		if fam.Name != name {
			continue
		}
		for _, s := range fam.Samples {
			if v, err := s.Float(); err == nil {
				sum += v
			}
		}
	}
	return sum
}

// jobSpans returns a routed job's span tree: the coordinator's spans
// plus the owning shard's.
func (f *fleet) jobSpans(id string) ([]obs.Span, error) {
	resp, err := f.fast.Get(f.coordURL() + "/v1/jobs/" + id + "/spans")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("spans of %s: %s", id, resp.Status)
	}
	var doc struct {
		Spans []obs.Span `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	return doc.Spans, nil
}

func spanMs(spans []obs.Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// svcRequest is one scheduled request and what came back.
type svcRequest struct {
	i      int
	miss   int // index of the fresh spec, or -1 for a hot-set repeat
	hot    int
	scrape bool
	sent   time.Time
	done   time.Time
	reply  *evalReply
	err    error
}

func runService(r *run, small bool) {
	log := observeMachines()
	defer func() { log.close() }()
	hot := hotSpecs(r.seed)
	hotBodies := make([][]byte, len(hot))
	for i, sp := range hot {
		b, err := evalBody(sp)
		if err != nil {
			r.fail("hot spec %d: %v", i, err)
			return
		}
		hotBodies[i] = b
	}

	// Set-up: start the fleet, evaluate the hot set in process as the
	// reference, and prime the daemons' result caches with it. Repeated
	// on fresh fleets; the hot set's sim counts must repeat exactly in
	// process, and on every fleet but the one kept for the window they
	// must equal the daemons' (read after the fleet has stopped, when
	// its workers have finished with the machines).
	var f *fleet
	var hotRef []scenario.Metrics
	var refCounts simCounts
	setups := setupReps
	if small {
		setups = 1
	}
	for k := 0; ; k++ {
		t := time.Now()
		var err error
		if f, err = startFleet(); err != nil {
			r.fail("starting the fleet: %v", err)
			return
		}
		log.take()
		hotRef = hotRef[:0]
		for i, sp := range hot {
			m, err := sp.EvalPoint(context.Background(), false)
			if err != nil {
				r.fail("hot spec %d in process: %v", i, err)
				f.stop()
				return
			}
			hotRef = append(hotRef, m)
		}
		local := log.take()
		for i, b := range hotBodies {
			rep, err := postEval(f.fast, f.coordURL(), b)
			if err != nil {
				r.fail("priming hot spec %d: %v", i, err)
				f.stop()
				return
			}
			if !reflect.DeepEqual(rep.metrics, hotRef[i]) {
				r.fail("hot spec %d: daemon metrics %v != in-process %v", i, rep.metrics, hotRef[i])
			}
		}
		primed := log.machines()
		r.setupS = append(r.setupS, time.Since(t).Seconds())
		r.attempts++
		if k == 0 {
			refCounts = local
		} else if local != refCounts {
			r.fail("set-up %d: hot-set sim counts %v != first set-up's %v", k, local, refCounts)
		}
		if k == setups-1 {
			break
		}
		f.stop()
		f = nil
		if remote := countAll(primed); remote != local {
			r.fail("set-up %d: daemon sim counts %v != in-process %v", k, remote, local)
		}
	}
	defer f.stop()

	// The schedule: every fifth request is a fresh spec, the seed picks
	// which hot spec each other one repeats, and a scrape follows every
	// svcRate requests.
	n := int(r.window.Seconds() * svcRate)
	if small {
		n = svcSmallReqs
	}
	rng := xrand.New(seedFor(r.seed, "schedule", 0))
	reqs := make([]*svcRequest, 0, n+n/svcRate+1)
	misses := 0
	for i := 0; i < n; i++ {
		q := &svcRequest{i: len(reqs), miss: -1}
		if i%svcMissEvery == svcMissEvery-1 {
			q.miss = misses
			misses++
		} else {
			q.hot = int(rng.Uint64n(uint64(len(hot))))
		}
		reqs = append(reqs, q)
		if i%svcRate == svcRate-1 {
			reqs = append(reqs, &svcRequest{i: len(reqs), miss: -1, scrape: true})
		}
	}
	missBodies := make([][]byte, misses)
	for j := range missBodies {
		b, err := evalBody(missSpec(r.seed, j))
		if err != nil {
			r.fail("miss spec %d: %v", j, err)
			return
		}
		missBodies[j] = b
	}

	// The daemons' machines in the window are not logged: the set-up has
	// already compared the daemons' sim counts with in-process runs, and
	// holding every machine until the window ends would keep hundreds of
	// MB alive.
	log.close()
	lateness := make([]float64, len(reqs))
	r.startMem()
	loop := openLoop{start: time.Now().Add(10 * time.Millisecond), gap: time.Second / time.Duration(svcRate+1)}
	var wg sync.WaitGroup
	for _, q := range reqs {
		time.Sleep(time.Until(loop.due(q.i)))
		q.sent = time.Now()
		lateness[q.i] = ms(loop.late(q.i, q.sent))
		wg.Add(1)
		go func(q *svcRequest) {
			defer wg.Done()
			switch {
			case q.scrape:
				_, q.err = f.scrape()
			case q.miss >= 0:
				q.reply, q.err = postEval(f.slow, f.coordURL(), missBodies[q.miss])
			default:
				q.reply, q.err = postEval(f.fast, f.coordURL(), hotBodies[q.hot])
			}
			q.done = time.Now()
		}(q)
	}
	wg.Wait()
	r.endMem(len(reqs))
	log = observeMachines()

	// Latencies count from the due time; the traced run traces every
	// other request.
	var hitMs, missMs, allMs, scrapeMs []float64
	var rejected int
	var tracedMisses []string
	for _, q := range reqs {
		r.attempts++
		lat := loop.latency(q.i, q.done)
		tr := r.traceOp(q.i)
		if tr != nil {
			op := tr.newOp()
			name := "service.hit"
			switch {
			case q.scrape:
				name = "service.scrape"
			case q.miss >= 0:
				name = "service.miss"
			}
			tr.add(op, 0, name, loop.due(q.i), q.done)
			tr.add(op, op, "service.gen_wait", loop.due(q.i), q.sent)
			tr.add(op, op, "service.http", q.sent, q.done)
		}
		if q.err != nil {
			if errors.Is(q.err, errRejected) {
				rejected++
			}
			r.fail("request %d: %v", q.i, q.err)
			continue
		}
		if q.scrape {
			scrapeMs = append(scrapeMs, ms(q.done.Sub(q.sent)))
			continue
		}
		r.recordOp(q.i, lat)
		if tr == nil {
			continue
		}
		allMs = append(allMs, ms(lat))
		if q.miss >= 0 {
			missMs = append(missMs, ms(lat))
			tracedMisses = append(tracedMisses, q.reply.job.ID)
		} else {
			hitMs = append(hitMs, ms(lat))
		}
	}

	// Check every answer against an in-process cold evaluation: the hot
	// set against the set-up reference, each fresh spec against its own.
	// The sim counts of the fresh specs are read from these in-process
	// machines.
	local := simCounts{}
	for j, body := range missBodies {
		sp := missSpec(r.seed, j)
		want, err := sp.EvalPoint(context.Background(), false)
		local.add(log.take())
		for _, q := range reqs {
			if q.miss != j || q.reply == nil || q.err != nil {
				continue
			}
			if err != nil {
				r.fail("miss spec %d in process: %v", j, err)
			} else if !reflect.DeepEqual(q.reply.metrics, want) {
				r.fail("miss spec %d: daemon metrics %v != in-process %v (%s)", j, q.reply.metrics, want, body)
			}
		}
	}
	for _, q := range reqs {
		if q.miss < 0 && !q.scrape && q.reply != nil && q.err == nil && !reflect.DeepEqual(q.reply.metrics, hotRef[q.hot]) {
			r.fail("request %d: hot spec %d metrics %v != in-process %v", q.i, q.hot, q.reply.metrics, hotRef[q.hot])
		}
	}
	r.counts = local

	if r.tr != nil {
		r.layer["service.hit_p50_ms"] = percentile(hitMs, 50)
		r.layer["service.miss_p50_ms"] = percentile(missMs, 50)
		r.layer["service.latency_p90_ms"] = percentile(allMs, 90)
		r.layer["service.gen_late_ms"] = percentile(lateness, 90)
		r.layer["obs.metrics_scrape_ms"] = percentile(scrapeMs, 50)
		r.layer["server.rejected_429"] = float64(rejected)
		fams, err := f.scrape()
		if err != nil {
			r.fail("final scrape: %v", err)
		} else {
			h, m := sumFamily(fams, "prestored_cache_hits_total"), sumFamily(fams, "prestored_cache_misses_total")
			if h+m > 0 {
				r.layer["server.result_cache_hit_ratio"] = h / (h + m)
			}
		}
		serviceLayers(r, f, hotBodies, tracedMisses)
	}
	fmt.Fprintf(os.Stderr, "service: %d requests (%d fresh, %d scrapes), %d set-ups\n",
		len(reqs), misses, len(reqs)-n, len(r.setupS))
}

// serviceLayers measures what the open loop cannot isolate: the daemon's
// own queue and run time for fresh specs (from its span endpoint), and
// a hit sent straight to its owning shard against the same hit through
// the coordinator.
func serviceLayers(r *run, f *fleet, hotBodies [][]byte, missJobs []string) {
	var wait, runMs []float64
	for _, id := range missJobs {
		spans, err := f.jobSpans(id)
		if err != nil {
			r.fail("%v", err)
			continue
		}
		wait = append(wait, spanMs(spans, "queue.wait")...)
		runMs = append(runMs, spanMs(spans, "run")...)
	}
	r.layer["server.queue_wait_ms"] = percentile(wait, 50)
	r.layer["server.run_ms"] = percentile(runMs, 50)

	// The owning shard of each hot spec is the one the coordinator's
	// "route" span names for it.
	owners := make([]string, len(hotBodies))
	for i, body := range hotBodies {
		r.attempts++
		rep, err := postEval(f.fast, f.coordURL(), body)
		if err != nil {
			r.fail("hot spec %d via the coordinator: %v", i, err)
			return
		}
		spans, err := f.jobSpans(rep.job.ID)
		if err != nil {
			r.fail("%v", err)
			return
		}
		for _, s := range spans {
			if s.Name == "route" {
				owners[i] = s.Attr("shard")
			}
		}
		if owners[i] == "" {
			r.fail("hot spec %d: no route span names its shard", i)
			return
		}
	}
	var direct, via []float64
	for i := 0; i < svcDirectPairs; i++ {
		h := i % len(hotBodies)
		r.attempts += 2
		for _, target := range []string{f.coordURL(), owners[h]} {
			t := time.Now()
			rep, err := postEval(f.fast, target, hotBodies[h])
			d := ms(time.Since(t))
			if err != nil {
				r.fail("hit via %s: %v", target, err)
				continue
			}
			if !rep.job.Cached {
				r.fail("hit via %s was not answered from the result cache", target)
			}
			if target == owners[h] {
				direct = append(direct, d)
			} else {
				via = append(via, d)
			}
		}
	}
	r.layer["server.hit_direct_ms"] = percentile(direct, 50)
	r.layer["cluster.proxy_ms"] = percentile(via, 50) - percentile(direct, 50)
}
