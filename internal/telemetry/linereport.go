package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"prestores/internal/core"
)

// LineStat is one cache line's attribution record.
type LineStat struct {
	Machine int    `json:"machine"`
	Addr    uint64 `json:"addr"`
	Writes  uint64 `json:"writes"`
	core.Reuse
}

// BucketStat aggregates device-level traffic for one address bucket.
// WriteAmp is device write bytes over application write bytes — the
// device-level write amplification the paper's Figure 3 sweeps.
type BucketStat struct {
	Machine          int     `json:"machine"`
	Base             uint64  `json:"base"`
	AppWriteBytes    uint64  `json:"app_write_bytes"`
	DeviceWriteBytes uint64  `json:"device_write_bytes"`
	DeviceReadBytes  uint64  `json:"device_read_bytes"`
	WriteAmp         float64 `json:"write_amp"`
}

// LineReport is the full attribution report.
type LineReport struct {
	LineSize    uint64   `json:"line_size"`
	BucketBytes uint64   `json:"bucket_bytes"`
	Machines    []string `json:"machines"`

	LinesTracked uint64 `json:"lines_tracked"`
	DroppedLines uint64 `json:"dropped_lines"`

	TotalAppWriteBytes    uint64  `json:"total_app_write_bytes"`
	TotalDeviceWriteBytes uint64  `json:"total_device_write_bytes"`
	TotalDeviceReadBytes  uint64  `json:"total_device_read_bytes"`
	WriteAmp              float64 `json:"write_amp"`

	// Lines is sorted by writes (descending), then machine and address.
	Lines []LineStat `json:"lines"`
	// Buckets is sorted by machine then base address.
	Buckets []BucketStat `json:"buckets"`
}

// ReportLines caps the per-line list of every report the tools render
// or ship: a daemon's linereport job artifact, prestore-bench
// -linereport and an autotune baseline's report. One cap keeps a
// baseline recorded locally and a probe fetched from a remote shard
// summing the same totals.
const ReportLines = 256

// LineReport builds the attribution report. maxLines caps the per-line
// list to the most-written lines (<= 0 keeps every tracked line).
func (r *Recorder) LineReport(maxLines int) *LineReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := &LineReport{
		BucketBytes:  r.cfg.BucketBytes,
		LinesTracked: uint64(r.nlines),
	}
	top := topLines{n: maxLines}
	for _, ms := range r.machines {
		rep.Machines = append(rep.Machines, ms.name)
		if ms.lineSize > rep.LineSize {
			rep.LineSize = ms.lineSize
		}
		rep.DroppedLines += ms.droppedLines
		for i, addr := range ms.lines.addrs {
			top.offer(lineRef{mach: ms.idx, addr: addr, li: &ms.lines.recs[i]})
		}
		for i, base := range ms.buckets.addrs {
			b := &ms.buckets.recs[i]
			bs := BucketStat{
				Machine:          int(ms.idx),
				Base:             base,
				AppWriteBytes:    b.appWriteBytes,
				DeviceWriteBytes: b.deviceWriteBytes,
				DeviceReadBytes:  b.deviceReadBytes,
			}
			if bs.AppWriteBytes > 0 {
				bs.WriteAmp = float64(bs.DeviceWriteBytes) / float64(bs.AppWriteBytes)
			}
			rep.TotalAppWriteBytes += bs.AppWriteBytes
			rep.TotalDeviceWriteBytes += bs.DeviceWriteBytes
			rep.TotalDeviceReadBytes += bs.DeviceReadBytes
			rep.Buckets = append(rep.Buckets, bs)
		}
	}
	rep.Lines = top.stats()
	sort.Slice(rep.Buckets, func(i, j int) bool {
		a, b := rep.Buckets[i], rep.Buckets[j]
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		return a.Base < b.Base
	})
	if rep.TotalAppWriteBytes > 0 {
		rep.WriteAmp = float64(rep.TotalDeviceWriteBytes) / float64(rep.TotalAppWriteBytes)
	}
	return rep
}

// lineRef is one tracked line offered for a report's line list.
type lineRef struct {
	mach uint16
	addr uint64
	li   *lineRec
}

// ahead reports whether a ranks before b in a report: most writes
// first, then machine, then address. The order is total, so the kept
// set and its order never depend on the order lines were offered in.
func (a lineRef) ahead(b lineRef) bool {
	if a.li.writes != b.li.writes {
		return a.li.writes > b.li.writes
	}
	if a.mach != b.mach {
		return a.mach < b.mach
	}
	return a.addr < b.addr
}

// topLines keeps the n lines that rank first (every line when n <= 0)
// in a bounded heap whose root is the worst line kept, so a report
// costs O(lines · log n) rather than a sort of every tracked line.
type topLines struct {
	n    int
	heap []lineRef
}

func (t *topLines) offer(x lineRef) {
	if t.n <= 0 || len(t.heap) < t.n {
		t.heap = append(t.heap, x)
		if t.n > 0 {
			t.up(len(t.heap) - 1)
		}
		return
	}
	if x.ahead(t.heap[0]) {
		t.heap[0] = x
		t.down(0)
	}
}

func (t *topLines) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.heap[p].ahead(t.heap[i]) {
			return
		}
		t.heap[p], t.heap[i] = t.heap[i], t.heap[p]
		i = p
	}
}

func (t *topLines) down(i int) {
	for {
		worst := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(t.heap) && t.heap[worst].ahead(t.heap[c]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		t.heap[i], t.heap[worst] = t.heap[worst], t.heap[i]
		i = worst
	}
}

// stats returns the kept lines in report order.
func (t *topLines) stats() []LineStat {
	sort.Slice(t.heap, func(i, j int) bool { return t.heap[i].ahead(t.heap[j]) })
	var out []LineStat
	if len(t.heap) > 0 {
		out = make([]LineStat, 0, len(t.heap))
	}
	for _, x := range t.heap {
		out = append(out, LineStat{Machine: int(x.mach), Addr: x.addr, Writes: x.li.writes, Reuse: x.li.Reuse})
	}
	return out
}

// WriteJSON renders the report as indented JSON. The encoding is
// stable: struct field order is fixed, Lines and Buckets are sorted by
// the total orders LineReport establishes, and no timestamps or host
// state leak in — equal reports render equal bytes.
func (rep *LineReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// DecodeLineReport parses a report previously rendered by WriteJSON,
// strictly (unknown fields are errors — a skew between daemon and
// client versions fails loudly instead of silently dropping fields).
// This is how the autotuner consumes a probe run's report when the
// probe executed on a remote shard.
func DecodeLineReport(data []byte) (*LineReport, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rep LineReport
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("telemetry: decoding line report: %w", err)
	}
	return &rep, nil
}

// LineTotals aggregates the per-line attribution columns over every
// line in the report. The autotuner's seeding rules consume these
// directly (rewrite/re-read frequency and nearness) instead of
// re-deriving them from the raw line list.
type LineTotals struct {
	Writes uint64 `json:"writes"`
	core.Reuse
}

// Totals sums the attribution columns over rep.Lines.
func (rep *LineReport) Totals() LineTotals {
	var t LineTotals
	for _, s := range rep.Lines {
		t.Writes += s.Writes
		t.Add(s.Reuse)
	}
	return t
}

// WriteText renders the report for humans: a traffic summary, the
// hottest lines, and the per-bucket write-amplification table.
func (rep *LineReport) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "cache-line attribution report\n")
	fmt.Fprintf(w, "  line size          %d B, bucket size %d B\n", rep.LineSize, rep.BucketBytes)
	fmt.Fprintf(w, "  lines tracked      %d (dropped %d)\n", rep.LinesTracked, rep.DroppedLines)
	fmt.Fprintf(w, "  app writes         %d B\n", rep.TotalAppWriteBytes)
	fmt.Fprintf(w, "  device writes      %d B\n", rep.TotalDeviceWriteBytes)
	fmt.Fprintf(w, "  device reads       %d B\n", rep.TotalDeviceReadBytes)
	fmt.Fprintf(w, "  write amplification %.2fx\n", rep.WriteAmp)

	const topLines = 20
	n := len(rep.Lines)
	if n > topLines {
		n = topLines
	}
	if n > 0 {
		fmt.Fprintf(w, "\nhottest %d of %d lines (by writes):\n", n, len(rep.Lines))
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  machine\taddr\twrites\trewrites\tavg rw dist\tnear rw\trereads\tavg rr dist\tnear rr")
		for _, s := range rep.Lines[:n] {
			fmt.Fprintf(tw, "  m%d\t0x%x\t%d\t%d\t%.0f\t%d\t%d\t%.0f\t%d\n",
				s.Machine, s.Addr, s.Writes, s.Rewrites, s.AvgRewriteDist(),
				s.NearRewrites, s.Rereads, s.AvgRereadDist(), s.NearRereads)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	if len(rep.Buckets) > 0 {
		fmt.Fprintf(w, "\nwrite amplification by %d B address bucket:\n", rep.BucketBytes)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  machine\tbucket\tapp B\tdevice wr B\tdevice rd B\twrite amp")
		for _, b := range rep.Buckets {
			amp := "-"
			if b.AppWriteBytes > 0 {
				amp = fmt.Sprintf("%.2fx", b.WriteAmp)
			}
			fmt.Fprintf(tw, "  m%d\t0x%x\t%d\t%d\t%d\t%s\n",
				b.Machine, b.Base, b.AppWriteBytes, b.DeviceWriteBytes, b.DeviceReadBytes, amp)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}
