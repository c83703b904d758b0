// Command prestore-trace runs DirtBuster on the bundled workloads, live
// or from recordings analyzed offline — DirtBuster's intended usage as
// an optimization pass decoupled from the profiled run (paper §6.1).
//
// Given only -workload, it runs the live three-step pipeline (sampling,
// then full instrumentation) and prints the paper-format report: the
// write-intensive functions, their sequentiality contexts with re-read
// and re-write distances, fence proximity, and the pre-store
// recommendation for each.
//
// Recording streams chunks to disk as the workload runs (v2 chunked
// format), so peak memory stays flat no matter how long the trace is.
// Every offline analysis streams the chunks back with bounded memory:
// the DirtBuster report in two passes, the -report time profile as its
// first pass, and -pmcheck in one. Recordings can also be shipped to a
// prestored daemon (or cluster coordinator) for remote sharded
// analysis.
//
// Usage:
//
//	prestore-trace -list                 # available workloads
//	prestore-trace -workload tensorflow  # live analysis of one workload
//	prestore-trace -workload all         # analyze everything (Table 2)
//	prestore-trace -record tf.trace -workload tensorflow
//	prestore-trace -analyze tf.trace -line 64
//	prestore-trace -analyze tf.trace -report
//	prestore-trace -analyze tf.trace -pmcheck -pmbase 0x10000000000
//	prestore-trace -upload tf.trace -server http://localhost:8344
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"prestores/internal/bench"
	"prestores/internal/dirtbuster"
	"prestores/internal/obs"
	"prestores/internal/pmcheck"
	"prestores/internal/server"
	"prestores/internal/trace"
)

func main() {
	record := flag.String("record", "", "record the workload's trace to this file")
	analyze := flag.String("analyze", "", "analyze a recorded trace file")
	upload := flag.String("upload", "", "upload a recorded trace to -server and analyze it there")
	serverURL := flag.String("server", "", "prestored daemon or coordinator base URL for -upload")
	workload := flag.String("workload", "", "workload to record, or to analyze live ('all' for every one; see -list)")
	list := flag.Bool("list", false, "list recordable workloads")
	quick := flag.Bool("quick", true, "use smoke-sized workloads (full-size traces are huge)")
	chunk := flag.Int("chunk", trace.DefaultChunkRecords, "records per chunk when recording")
	name := flag.String("name", "trace", "application name for the analysis report")
	lineSize := flag.Uint64("line", 64, "cache line size of the recorded machine")
	report := flag.Bool("report", false, "print a perf-report-style per-function time profile")
	pmCheck := flag.Bool("pmcheck", false, "run the persistence checker instead of DirtBuster")
	pmBase := flag.Uint64("pmbase", pmcheck.DefaultBase, "persistent range base for -pmcheck")
	pmSize := flag.Uint64("pmsize", pmcheck.DefaultSize, "persistent range size for -pmcheck")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		obs.PrintVersion(os.Stdout, "prestore-trace")
		return
	}

	switch {
	case *list:
		for _, w := range bench.Table2Workloads(*quick) {
			fmt.Println(w.Name)
		}
	case *record != "" && *workload != "":
		doRecord(*record, findWorkload(*workload, *quick), *chunk)
	case *analyze != "" && *report:
		st, err := dirtbuster.StatsOf(openTrace(*analyze))
		if err != nil {
			fatal(err)
		}
		fmt.Print(st.RenderProfile())
	case *analyze != "" && *pmCheck:
		res, err := pmcheck.Check(openTrace(*analyze), pmcheck.Config{
			Base: *pmBase, Size: *pmSize, LineSize: *lineSize,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Print(res.Render())
		if !res.Ok() {
			os.Exit(1)
		}
	case *analyze != "":
		open := func() (dirtbuster.ChunkIter, error) { return openTrace(*analyze), nil }
		rep, err := dirtbuster.AnalyzeChunkSource(*name, open, *lineSize, dirtbuster.Config{})
		if err != nil {
			fatal(err)
		}
		fmt.Println(rep.Render())
	case *upload != "" && *serverURL != "":
		c := server.NewClient(30*time.Second, nil, server.Backoff{})
		if err := doUpload(context.Background(), c, os.Stdout, *serverURL, *upload, *name, *lineSize); err != nil {
			fatal(err)
		}
	case *workload == "all":
		for _, w := range bench.Table2Workloads(*quick) {
			fmt.Println(dirtbuster.Analyze(w, dirtbuster.Config{}).Render())
		}
	case *workload != "":
		fmt.Println(dirtbuster.Analyze(findWorkload(*workload, *quick), dirtbuster.Config{}).Render())
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// findWorkload returns the named bundled workload, exiting on an
// unknown name.
func findWorkload(name string, quick bool) dirtbuster.Workload {
	for _, w := range bench.Table2Workloads(quick) {
		if w.Name == name {
			return w
		}
	}
	fmt.Fprintf(os.Stderr, "unknown workload %q; try -list\n", name)
	os.Exit(2)
	return dirtbuster.Workload{}
}

// doRecord streams the workload's trace to the file chunk by chunk:
// the writer's buffer holds at most one chunk of records, so peak RSS
// is flat in trace length.
func doRecord(path string, w dirtbuster.Workload, chunkRecords int) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	tw := trace.NewWriter(f, trace.WriterOptions{ChunkRecords: chunkRecords})
	line := dirtbuster.RecordStream(w, tw.Hook())
	if err := tw.Close(); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("recorded %d ops of %q (line size %dB) to %s in %d chunks\n",
		tw.Records(), w.Name, line, path, tw.Chunks())
}

// openTrace opens a recording (v1 or v2) as a chunk stream that
// closes the file when the stream ends; it exits if the file cannot be
// opened.
func openTrace(path string) trace.ChunkIter {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	cr, err := trace.NewChunkReader(f)
	if err != nil {
		fatal(err)
	}
	return &closingIter{cr: cr, f: f}
}

// closingIter closes the underlying file when the chunk stream ends.
type closingIter struct {
	cr *trace.ChunkReader
	f  *os.File
}

func (it *closingIter) Next() (*trace.Chunk, error) {
	c, err := it.cr.Next()
	if err != nil {
		it.f.Close()
	}
	return c, err
}

const uploadPart = 4 << 20

// doUpload ships a recording to a prestored daemon (or cluster
// coordinator) with the resumable upload protocol, submits a chunked
// analysis of it and writes the report to w. The job-API client
// retries 429s on open, commit and submit, bounds each unary call with
// its request timeout, and follows the analysis across dropped streams.
// Offset mismatches (409) are resumed from the server's offset, so a
// retried or interrupted upload never re-sends bytes the server
// already has.
func doUpload(ctx context.Context, c *server.Client, w io.Writer, base, path, app string, lineSize uint64) error {
	base = strings.TrimRight(base, "/")
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	var opened struct {
		Upload string `json:"upload"`
		Offset int64  `json:"offset"`
	}
	if err := c.Submit(ctx, base+"/v1/traces?resume=1", nil, &opened); err != nil {
		return err
	}
	off := opened.Offset
	buf := make([]byte, uploadPart)
	for {
		n, rerr := f.ReadAt(buf, off)
		if n > 0 {
			url := fmt.Sprintf("%s/v1/traces/uploads/%s?offset=%d", base, opened.Upload, off)
			resp, err := c.Do(ctx, http.MethodPut, url, "application/octet-stream", buf[:n])
			if err != nil {
				return err
			}
			// A 409 carries the server's offset too: following it
			// resolves a disagreement in one extra round trip.
			if resp.Code != http.StatusOK && resp.Code != http.StatusConflict {
				return fmt.Errorf("upload part at %d: %w", off, &server.StatusError{Code: resp.Code, Body: resp.Body})
			}
			var ack struct {
				Offset int64 `json:"offset"`
			}
			if err := json.Unmarshal(resp.Body, &ack); err != nil {
				return err
			}
			off = ack.Offset
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return rerr
		}
	}
	var info struct {
		Address string `json:"address"`
		Chunks  int    `json:"chunks"`
		Records uint64 `json:"records"`
	}
	if err := c.Submit(ctx, base+"/v1/traces/uploads/"+opened.Upload+"/commit", nil, &info); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "uploaded %d bytes as %s (%d chunks, %d records)\n",
		off, info.Address, info.Chunks, info.Records)

	spec, _ := json.Marshal(map[string]any{"trace": info.Address, "app": app, "line_size": lineSize})
	var st server.JobStatus
	if err := c.Submit(ctx, base+"/v1/analyses", spec, &st); err != nil {
		return err
	}
	if st.Result == nil { // not a cache hit: follow the job to its end
		final, err := c.Follow(ctx, base, st.ID, io.Discard)
		if err != nil {
			return err
		}
		st = *final
	}
	if st.State != "done" || st.Result == nil {
		msg := st.State
		if st.Result != nil && st.Result.Err != "" {
			msg += ": " + st.Result.Err
		}
		return fmt.Errorf("remote analysis %s", msg)
	}
	_, err = io.WriteString(w, st.Result.Output)
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prestore-trace:", err)
	os.Exit(1)
}
