package dirtbuster

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"prestores/internal/sim"
	"prestores/internal/trace"
)

// richWorkload exercises every code path of steps 2–3 across two
// cores: sequential streams, rewrites, rereads, fences, atomics,
// multiple monitored functions and unmonitored noise.
func richWorkload() Workload {
	return Workload{
		Name:       "rich",
		NewMachine: sim.MachineA,
		Run: func(m *sim.Machine) {
			c0, c1 := m.Core(0), m.Core(1)
			buf := make([]byte, 256)
			small := make([]byte, 16)

			c0.PushFunc("log.append")
			for i := uint64(0); i < 400; i++ {
				c0.Write(base+i*256, buf)
				if i%8 == 7 {
					c0.Fence()
				}
			}
			c0.PopFunc()

			c1.PushFunc("index.update")
			for i := uint64(0); i < 300; i++ {
				// Rewrite a small hot region, re-read some of it.
				c1.Write(base+1<<20+(i%32)*64, small)
				if i%3 == 0 {
					c1.Read(base+1<<20+(i%32)*64, small)
				}
				if i%16 == 0 {
					c1.AtomicAdd(base+1<<21, 1)
				}
			}
			c1.PopFunc()

			c0.PushFunc("cache.fill")
			for i := uint64(0); i < 200; i++ {
				c0.Write(base+1<<22+i*64, small)
			}
			c0.PopFunc()

			// Unmonitored noise: reads and compute in other functions.
			c1.PushFunc("scan.read")
			for i := uint64(0); i < 500; i++ {
				c1.Read(base+i*256, buf)
			}
			c1.PopFunc()
			c0.PushFunc("misc.think")
			c0.Compute(5000)
			c0.PopFunc()
		},
	}
}

// handChunks splits a buffer into chunks of the given record counts
// (zeros produce empty chunks), re-interning names per chunk.
func handChunks(t *testing.T, tb *trace.Buffer, sizes []int) []*trace.Chunk {
	t.Helper()
	var recs []trace.Record
	var fns []string
	tb.Replay(func(r trace.Record, fn string) { recs = append(recs, r); fns = append(fns, fn) })
	var chunks []*trace.Chunk
	pos := 0
	for _, n := range sizes {
		if pos+n > len(recs) {
			n = len(recs) - pos
		}
		c := &trace.Chunk{Index: len(chunks)}
		ids := map[string]uint32{}
		for i := pos; i < pos+n; i++ {
			r := recs[i]
			id, ok := ids[fns[i]]
			if !ok {
				id = uint32(len(c.Funcs))
				ids[fns[i]] = id
				c.Funcs = append(c.Funcs, fns[i])
			}
			r.Fn = id
			if int(r.Core) > c.MaxCore {
				c.MaxCore = int(r.Core)
			}
			c.Records = append(c.Records, r)
		}
		pos += n
		chunks = append(chunks, c)
	}
	if pos != len(recs) {
		t.Fatalf("hand chunks cover %d of %d records", pos, len(recs))
	}
	return chunks
}

// codecChunks splits a buffer by running it through the v2 codec.
func codecChunks(t testing.TB, tb *trace.Buffer, chunkRecords int) []*trace.Chunk {
	t.Helper()
	var buf bytes.Buffer
	if err := tb.EncodeChunked(&buf, chunkRecords); err != nil {
		t.Fatal(err)
	}
	cr, err := trace.NewChunkReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var chunks []*trace.Chunk
	for {
		c, err := cr.Next()
		if err != nil {
			break
		}
		chunks = append(chunks, c)
	}
	return chunks
}

// runChunked runs the full map/merge/reduce pipeline over the chunks,
// merging stats and partials in the shuffled order rnd picks, with an
// optional roundtrip of every partial through the wire codec.
func runChunked(t *testing.T, app string, chunks []*trace.Chunk, lineSize uint64, cfg Config, rnd *rand.Rand, wire bool) *Report {
	t.Helper()
	// Pass 1: per-chunk stats merged in shuffled order.
	stats := make([]*Stats, len(chunks))
	for i, c := range chunks {
		stats[i] = NewStats()
		stats[i].AddChunk(c)
	}
	rnd.Shuffle(len(stats), func(i, j int) { stats[i], stats[j] = stats[j], stats[i] })
	merged := NewStats()
	for _, s := range stats {
		merged.Merge(s)
	}
	plan := merged.Plan(app, lineSize, cfg)
	if !plan.WriteIntensive {
		rep, err := plan.Finish(nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	// Pass 2: per-chunk partials, pairwise-merged in random order.
	parts := make([]*Partial, len(chunks))
	for i, c := range chunks {
		parts[i] = plan.AnalyzeChunk(c)
		if wire {
			var buf bytes.Buffer
			if err := parts[i].Encode(&buf); err != nil {
				t.Fatal(err)
			}
			pt, err := DecodePartial(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			parts[i] = pt
		}
	}
	for len(parts) > 1 {
		i := rnd.Intn(len(parts))
		j := rnd.Intn(len(parts))
		if i == j {
			continue
		}
		if err := parts[i].Merge(parts[j]); err != nil {
			t.Fatal(err)
		}
		parts[j] = parts[len(parts)-1]
		parts = parts[:len(parts)-1]
	}
	var pt *Partial
	if len(parts) == 1 {
		pt = parts[0]
		if got := pt.Chunks(); len(got) != 1 || got[0][0] != 0 || got[0][1] != len(chunks)-1 {
			t.Fatalf("merged partial covers %v, want [[0 %d]]", got, len(chunks)-1)
		}
	}
	rep, err := plan.Finish(pt)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func mustMatch(t *testing.T, got, want *Report, label string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: chunked report differs from monolithic\n--- chunked ---\n%s\n--- monolithic ---\n%s",
			label, got.Render(), want.Render())
	}
	if got.Render() != want.Render() {
		t.Fatalf("%s: rendered report not byte-identical", label)
	}
}

// TestChunkedAgreesWithMonolithic is the pipeline's contract: the
// map/merge/reduce path must be byte-identical to the monolithic
// AnalyzeTrace at every chunk size, with shuffled merge orders,
// 1-record chunks and empty chunks.
func TestChunkedAgreesWithMonolithic(t *testing.T) {
	tb, line := Record(richWorkload())
	cfg := Config{}
	want := AnalyzeTrace("rich", tb, line, cfg)
	if !want.WriteIntensive {
		t.Fatalf("rich workload not write-intensive (store share %.3f)", want.StoreShare)
	}

	for _, size := range []int{1, 7, 64, 1 << 20} {
		rnd := rand.New(rand.NewSource(int64(size)))
		chunks := codecChunks(t, tb, size)
		got := runChunked(t, "rich", chunks, line, cfg, rnd, size == 7)
		mustMatch(t, got, want, "codec chunks")
	}

	// Hand-built split with empty chunks sprinkled in, single-record
	// chunks and a large tail.
	sizes := []int{0, 1, 0, 5, 1, 0, 250, 0, 1, tb.Len()}
	rnd := rand.New(rand.NewSource(99))
	got := runChunked(t, "rich", handChunks(t, tb, sizes), line, cfg, rnd, true)
	mustMatch(t, got, want, "hand chunks with empties")
}

// TestChunkedAgreesNotWriteIntensive covers the step-1 early exit.
func TestChunkedAgreesNotWriteIntensive(t *testing.T) {
	tb, line := Record(wl("readonly", func(c *sim.Core) {
		buf := make([]byte, 256)
		c.PushFunc("reader")
		for i := uint64(0); i < 2000; i++ {
			c.Read(base+i*256, buf)
		}
		c.PopFunc()
	}))
	cfg := Config{}
	want := AnalyzeTrace("readonly", tb, line, cfg)
	if want.WriteIntensive {
		t.Fatal("readonly workload classified write-intensive")
	}
	rnd := rand.New(rand.NewSource(7))
	got := runChunked(t, "readonly", codecChunks(t, tb, 100), line, cfg, rnd, false)
	mustMatch(t, got, want, "not write-intensive")
}

// TestChunkedAgreesThroughStreaming checks the one-shot streaming
// helper against the monolithic path.
func TestChunkedAgreesThroughStreaming(t *testing.T) {
	tb, line := Record(richWorkload())
	var buf bytes.Buffer
	if err := tb.EncodeChunked(&buf, 97); err != nil {
		t.Fatal(err)
	}
	open := func() (ChunkIter, error) {
		return trace.NewChunkReader(bytes.NewReader(buf.Bytes()))
	}
	got, err := AnalyzeChunkSource("rich", open, line, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustMatch(t, got, AnalyzeTrace("rich", tb, line, Config{}), "streaming source")
}

func TestPartialMergeRejectsOverlap(t *testing.T) {
	tb, line := Record(richWorkload())
	chunks := codecChunks(t, tb, 100)
	stats := NewStats()
	for _, c := range chunks {
		stats.AddChunk(c)
	}
	plan := stats.Plan("rich", line, Config{})
	a := plan.AnalyzeChunk(chunks[0])
	b := plan.AnalyzeChunk(chunks[0])
	if err := a.Merge(b); err == nil {
		t.Fatal("merge accepted overlapping chunk ranges")
	}
}

func TestAnalysisRejectsGap(t *testing.T) {
	tb, line := Record(richWorkload())
	chunks := codecChunks(t, tb, 100)
	if len(chunks) < 3 {
		t.Fatalf("only %d chunks", len(chunks))
	}
	stats := NewStats()
	for _, c := range chunks {
		stats.AddChunk(c)
	}
	plan := stats.Plan("rich", line, Config{})
	pt := plan.AnalyzeChunk(chunks[0])
	if err := pt.Merge(plan.AnalyzeChunk(chunks[2])); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Finish(pt); err == nil {
		t.Fatal("analysis accepted a chunk gap")
	}
	a := plan.NewAnalysis()
	if err := a.AddChunk(chunks[1]); err == nil {
		t.Fatal("analysis accepted an out-of-order chunk")
	}
}

// FuzzDecodePartial throws arbitrary bytes at the partial decoder: it
// must return an error or a partial whose encode/decode is stable,
// never panic.
func FuzzDecodePartial(f *testing.F) {
	tb, line := Record(richWorkload())
	chunks := codecChunks(f, tb, 200)
	stats := NewStats()
	for _, c := range chunks {
		stats.AddChunk(c)
	}
	plan := stats.Plan("rich", line, Config{})
	seed := plan.AnalyzeChunk(chunks[0])
	var buf bytes.Buffer
	if err := seed.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("PSPL"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		pt, err := DecodePartial(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := pt.Encode(&out); err != nil {
			t.Fatalf("re-encode of decoded partial: %v", err)
		}
		if _, err := DecodePartial(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("re-decode of re-encoded partial: %v", err)
		}
	})
}

// TestProfileFromStats checks the per-function time profile rendered
// from the pass-1 aggregate.
func TestProfileFromStats(t *testing.T) {
	tb, _ := Record(wl("profile", func(c *sim.Core) {
		c.PushFunc("writer")
		for i := uint64(0); i < 200; i++ {
			c.Write(1<<40+i*4096, make([]byte, 256))
		}
		c.PopFunc()
		c.PushFunc("thinker")
		c.Compute(50)
		c.PopFunc()
	}))
	st := NewStats()
	tb.Replay(st.AddRecord)
	rows := strings.Split(strings.TrimSuffix(st.RenderProfile(), "\n"), "\n")[1:]
	if len(rows) < 2 {
		t.Fatalf("profile has %d functions", len(rows))
	}
	if top := strings.Fields(rows[0])[0]; top != "writer" {
		t.Fatalf("top function %q, want writer", top)
	}
	if w := st.Fns["writer"]; w.StoreCycles == 0 || w.Cycles == 0 || w.Ops == 0 {
		t.Fatalf("writer attribution: %+v", w)
	}
	var total float64
	for _, a := range st.Fns {
		total += float64(a.Cycles) / float64(st.TotalCycles)
	}
	if total < 0.99 || total > 1.01 {
		t.Fatalf("time shares sum to %v", total)
	}
}
