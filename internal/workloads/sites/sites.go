// Package sites is a synthetic two-site workload with a known-best
// pre-store plan, built to exercise per-site policy search:
//
//   - The "hot" site rewrites a small, cache-resident set of lines
//     every round on a producer core; a consumer core reads them right
//     after. With no pre-store the consumer pays the dirty-remote
//     cache-to-cache forward on every round; demoting the freshly
//     written lines to the shared LLC removes it, cheaper than clean
//     (which pays the device write-back every round) and skip (which
//     sends the reads to the device). Demote is the optimum.
//
//   - The "once" site appends a write-once sequential stream about
//     twice the LLC, sampling it back shortly after writing. Left
//     alone, the stream is evicted in scrambled order and the
//     256 B-block device pays partial-flush write amplification and its
//     backlog (paper §4.1); cleaning each chunk as it is written
//     restores eviction sequentiality, and — unlike skip — keeps the
//     lines cached for the near re-read. Clean is the optimum.
//
// The autotuner's convergence tests assert that the search minimizes
// elapsed to {hot: demote, once: clean} from a cold start within a
// bounded budget; the sites test pins that this is the true optimum of
// the full plan matrix.
package sites

import (
	"fmt"

	"prestores/internal/scenario"
	"prestores/internal/sim"
	"prestores/internal/units"
)

// Config parameterizes one run. Site ops are already resolved
// (scenario.SiteOp) by the time Run sees them.
type Config struct {
	HotLines  int    // producer-rewritten, consumer-read lines per round
	OnceLines int    // fresh sequential lines appended per round
	Rounds    int    // rounds; once-stream footprint = Rounds*OnceLines*line
	Stride    int    // once-site re-read sampling stride (0 = no re-read)
	Window    string // memory window both sites live in
	HotOp     string // none | clean | skip | demote
	OnceOp    string
}

// Result reports one measured run.
type Result struct {
	Elapsed          units.Cycles
	DeviceWriteBytes uint64
	DeviceReadBytes  uint64
	WriteAmp         float64
	Checksum         uint64
}

// site applies one write through a site's resolved pre-store op.
func site(c *sim.Core, addr uint64, data []byte, op string) {
	if op == "skip" {
		c.WriteNT(addr, data)
		return
	}
	c.Write(addr, data)
	switch op {
	case "clean":
		c.Prestore(addr, uint64(len(data)), sim.Clean)
	case "demote":
		c.Prestore(addr, uint64(len(data)), sim.Demote)
	}
}

// Run executes the workload. Core 0 produces the hot set; core 1
// consumes it and owns the once stream, so the consumer core is the
// critical path and the hot site's forwarding cost shows up in Elapsed.
func Run(m *sim.Machine, cfg Config) Result {
	if cfg.Window == "" {
		cfg.Window = sim.WindowPMEM
	}
	line := m.LineSize()
	hot := m.Alloc(cfg.Window, "sites.hot", uint64(cfg.HotLines)*line)
	pool := m.Alloc(cfg.Window, "sites.once", uint64(cfg.Rounds)*uint64(cfg.OnceLines)*line)
	dev := m.Device(cfg.Window)
	if dev == nil {
		panic(fmt.Sprintf("sites: machine has no window %q", cfg.Window))
	}

	prod, cons := m.Core(0), m.Core(1)
	buf := make([]byte, line)
	rd := make([]byte, line)

	var res Result
	m.Drain()
	m.ResetStats()
	dev.ResetStats()

	res.Elapsed = sim.Elapsed(m, []*sim.Core{prod, cons}, func() {
		oncePtr := pool.Base
		for round := 0; round < cfg.Rounds; round++ {
			// Hot site: the producer rewrites every line...
			for i := 0; i < cfg.HotLines; i++ {
				buf[0] = byte(round + i)
				site(prod, hot.Base+uint64(i)*line, buf, cfg.HotOp)
			}
			// ...and the consumer reads them all.
			for i := 0; i < cfg.HotLines; i++ {
				cons.Read(hot.Base+uint64(i)*line, rd)
				res.Checksum += uint64(rd[0])
			}
			// Once site: the consumer appends a fresh chunk...
			chunk := oncePtr
			for i := 0; i < cfg.OnceLines; i++ {
				buf[0] = byte(i)
				site(cons, oncePtr, buf, cfg.OnceOp)
				oncePtr += line
			}
			// ...and samples it back while it is still near.
			if cfg.Stride > 0 {
				for i := 0; i < cfg.OnceLines; i += cfg.Stride {
					cons.Read(chunk+uint64(i)*line, rd)
					res.Checksum += uint64(rd[0])
				}
			}
		}
		m.Drain()
	})

	st := dev.Stats()
	res.DeviceWriteBytes = st.MediaBytesWritten
	res.DeviceReadBytes = st.MediaBytesRead
	res.WriteAmp = st.WriteAmplification()
	return res
}

func init() {
	scenario.Register(scenario.Workload{
		Name:        "sites",
		Description: "synthetic two-site policy workload: a hot cross-core set (demote wins) and a write-once stream (clean wins)",
		Window:      sim.WindowPMEM,
		Params: []scenario.ParamDef{
			{Name: "hot_lines", Kind: scenario.KindInt, Help: "hot lines rewritten and cross-core read per round (default 64)"},
			{Name: "once_lines", Kind: scenario.KindInt, Help: "write-once lines appended per round (default 8192)"},
			{Name: "rounds", Kind: scenario.KindInt, Help: "rounds (default 16); stream footprint = rounds*once_lines*line"},
			{Name: "stride", Kind: scenario.KindInt, Help: "once-stream re-read sampling stride (default 4, 0 disables)"},
			{Name: "window", Kind: scenario.KindString, Help: "memory window (default pmem)"},
		},
		Ops:         []string{"none", "clean", "skip", "demote"},
		MetricNames: []string{"elapsed", "device_write_bytes", "device_read_bytes", "write_amp"},
		Sites:       []string{"hot", "once"},
		Run: func(m *sim.Machine, op string, p scenario.Params) (scenario.Metrics, error) {
			if m.Cores() < 2 {
				return nil, fmt.Errorf("machine: sites needs at least 2 cores")
			}
			r := Run(m, Config{
				HotLines:  p.Int("hot_lines", 64),
				OnceLines: p.Int("once_lines", 8192),
				Rounds:    p.Int("rounds", 16),
				Stride:    p.Int("stride", 4),
				Window:    p.Str("window", ""),
				HotOp:     scenario.SiteOp(p, "hot", op),
				OnceOp:    scenario.SiteOp(p, "once", op),
			})
			return scenario.Metrics{
				"elapsed":            float64(r.Elapsed),
				"device_write_bytes": float64(r.DeviceWriteBytes),
				"device_read_bytes":  float64(r.DeviceReadBytes),
				"write_amp":          r.WriteAmp,
			}, nil
		},
	})
}
