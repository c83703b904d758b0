package sim

import (
	"encoding/json"
	"fmt"

	"prestores/internal/cache"
	"prestores/internal/memdev"
	"prestores/internal/units"
)

// This file gives Config a declarative form: JSON marshal/unmarshal
// (devices serialized through memdev.Spec), deterministic field-path
// validation, and a registry of named machine presets. It is the
// bridge the scenario layer (internal/scenario) uses so that the
// paper's machines and fully custom hierarchies travel the same path.

// cacheJSON mirrors cache.Config with the replacement policy as a
// string (cache.Policy.String / cache.ParsePolicy).
type cacheJSON struct {
	Name      string  `json:"name,omitempty"`
	Size      uint64  `json:"size,omitempty"`
	Ways      int     `json:"ways,omitempty"`
	LineSize  uint64  `json:"line_size,omitempty"`
	Policy    string  `json:"policy,omitempty"`
	RandomMix float64 `json:"random_mix,omitempty"`
	HashSets  bool    `json:"hash_sets,omitempty"`
	HitLat    uint64  `json:"hit_lat,omitempty"`
	Seed      uint64  `json:"seed,omitempty"`
}

func cacheToJSON(c cache.Config) cacheJSON {
	j := cacheJSON{
		Name: c.Name, Size: c.Size, Ways: c.Ways, LineSize: c.LineSize,
		RandomMix: c.RandomMix, HashSets: c.HashSets, HitLat: c.HitLat, Seed: c.Seed,
	}
	if c.Policy != 0 {
		j.Policy = c.Policy.String()
	}
	return j
}

func cacheFromJSON(level string, j cacheJSON) (cache.Config, error) {
	c := cache.Config{
		Name: j.Name, Size: j.Size, Ways: j.Ways, LineSize: j.LineSize,
		RandomMix: j.RandomMix, HashSets: j.HashSets, HitLat: j.HitLat, Seed: j.Seed,
	}
	if j.Policy != "" {
		p, err := cache.ParsePolicy(j.Policy)
		if err != nil {
			return c, fmt.Errorf("%s.policy: %v", level, err)
		}
		c.Policy = p
	}
	return c, nil
}

// windowJSON mirrors WindowSpec with the device as a memdev.Spec.
type windowJSON struct {
	Name   string      `json:"name"`
	Base   uint64      `json:"base"`
	Size   uint64      `json:"size"`
	Device memdev.Spec `json:"device"`
}

// configJSON is the wire form of Config.
type configJSON struct {
	Name          string       `json:"name,omitempty"`
	ClockHz       uint64       `json:"clock_hz,omitempty"`
	Cores         int          `json:"cores,omitempty"`
	LineSize      uint64       `json:"line_size,omitempty"`
	L1            cacheJSON    `json:"l1,omitempty"`
	L2            cacheJSON    `json:"l2,omitempty"`
	LLC           cacheJSON    `json:"llc,omitempty"`
	Drain         string       `json:"drain,omitempty"`
	LazyDrainAge  uint64       `json:"lazy_drain_age,omitempty"`
	SBEntries     int          `json:"sb_entries,omitempty"`
	MLP           int          `json:"mlp,omitempty"`
	WCEntries     int          `json:"wc_entries,omitempty"`
	WBQueueCap    int          `json:"wb_queue_cap,omitempty"`
	DirOnDevice   bool         `json:"dir_on_device,omitempty"`
	CleanToPOU    bool         `json:"clean_to_pou,omitempty"`
	PrefetchDepth int          `json:"prefetch_depth,omitempty"`
	Windows       []windowJSON `json:"windows"`
	Seed          uint64       `json:"seed,omitempty"`
}

// MarshalJSON serializes the Config, describing each window's device
// through memdev.Describe. Devices that are not registered memdev
// kinds (wrappers, test fakes) are not serializable.
func (c Config) MarshalJSON() ([]byte, error) {
	j := configJSON{
		Name:          c.Name,
		ClockHz:       uint64(c.Clock),
		Cores:         c.Cores,
		LineSize:      c.LineSize,
		L1:            cacheToJSON(c.L1),
		L2:            cacheToJSON(c.L2),
		LLC:           cacheToJSON(c.LLC),
		LazyDrainAge:  c.LazyDrainAge,
		SBEntries:     c.SBEntries,
		MLP:           c.MLP,
		WCEntries:     c.WCEntries,
		WBQueueCap:    c.WBQueueCap,
		DirOnDevice:   c.DirOnDevice,
		CleanToPOU:    c.CleanToPOU,
		PrefetchDepth: c.PrefetchDepth,
		Seed:          c.Seed,
	}
	if c.Drain != DrainEager {
		j.Drain = c.Drain.String()
	}
	for i, w := range c.Windows {
		spec, ok := memdev.Describe(w.Device)
		if !ok {
			return nil, fmt.Errorf("windows[%d].device: not a registered device kind", i)
		}
		j.Windows = append(j.Windows, windowJSON{Name: w.Name, Base: w.Base, Size: w.Size, Device: spec})
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes a Config, building each window's device from
// its memdev.Spec. Errors name the offending field path.
func (c *Config) UnmarshalJSON(data []byte) error {
	var j configJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	out := Config{
		Name:          j.Name,
		Clock:         units.Hz(j.ClockHz),
		Cores:         j.Cores,
		LineSize:      j.LineSize,
		LazyDrainAge:  j.LazyDrainAge,
		SBEntries:     j.SBEntries,
		MLP:           j.MLP,
		WCEntries:     j.WCEntries,
		WBQueueCap:    j.WBQueueCap,
		DirOnDevice:   j.DirOnDevice,
		CleanToPOU:    j.CleanToPOU,
		PrefetchDepth: j.PrefetchDepth,
		Seed:          j.Seed,
	}
	var err error
	if out.L1, err = cacheFromJSON("l1", j.L1); err != nil {
		return err
	}
	if out.L2, err = cacheFromJSON("l2", j.L2); err != nil {
		return err
	}
	if out.LLC, err = cacheFromJSON("llc", j.LLC); err != nil {
		return err
	}
	switch j.Drain {
	case "", "eager":
		out.Drain = DrainEager
	case "lazy":
		out.Drain = DrainLazy
	default:
		return fmt.Errorf("drain: unknown drain mode %q (one of [eager lazy])", j.Drain)
	}
	for i, w := range j.Windows {
		dev, berr := w.Device.Build()
		if berr != nil {
			return fmt.Errorf("windows[%d].device.%v", i, berr)
		}
		out.Windows = append(out.Windows, WindowSpec{Name: w.Name, Base: w.Base, Size: w.Size, Device: dev})
	}
	if err := out.Validate(); err != nil {
		return err
	}
	*c = out
	return nil
}

func validateCacheConfig(level string, c cache.Config) error {
	if c.Size == 0 {
		return nil // level disabled
	}
	if c.Ways <= 0 {
		return fmt.Errorf("%s.ways: must be positive when size is set (got %d)", level, c.Ways)
	}
	line := c.LineSize
	if line == 0 {
		line = 64
	}
	if line&(line-1) != 0 {
		return fmt.Errorf("%s.line_size: must be a power of two (got %d)", level, line)
	}
	// Size must be a multiple of ways*line_size; dividing in two steps
	// never forms the product, which can wrap to 0.
	if c.Size%line != 0 || (c.Size/line)%uint64(c.Ways) != 0 {
		return fmt.Errorf("%s.size: must be a multiple of ways*line_size (got %d with %d ways of %d B lines)",
			level, c.Size, c.Ways, line)
	}
	if c.RandomMix < 0 || c.RandomMix > 1 {
		return fmt.Errorf("%s.random_mix: must be in [0,1] (got %g)", level, c.RandomMix)
	}
	return nil
}

// Validate checks a Config for structural problems fillDefaults cannot
// repair. Error strings are deterministic and name the offending field
// path (e.g. "windows[1].size: must be positive").
func (c Config) Validate() error {
	if c.Cores < 0 {
		return fmt.Errorf("cores: must be non-negative (got %d)", c.Cores)
	}
	if c.LineSize != 0 && c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("line_size: must be a power of two (got %d)", c.LineSize)
	}
	for _, lv := range []struct {
		name string
		cfg  cache.Config
	}{{"l1", c.L1}, {"l2", c.L2}, {"llc", c.LLC}} {
		if err := validateCacheConfig(lv.name, lv.cfg); err != nil {
			return err
		}
	}
	for _, n := range []struct {
		name string
		v    int
	}{
		{"sb_entries", c.SBEntries}, {"mlp", c.MLP}, {"wc_entries", c.WCEntries},
		{"wb_queue_cap", c.WBQueueCap}, {"prefetch_depth", c.PrefetchDepth},
	} {
		if n.v < 0 {
			return fmt.Errorf("%s: must be non-negative (got %d)", n.name, n.v)
		}
	}
	if len(c.Windows) == 0 {
		return fmt.Errorf("windows: at least one window is required")
	}
	for i, w := range c.Windows {
		if w.Name == "" {
			return fmt.Errorf("windows[%d].name: required", i)
		}
		if w.Size == 0 {
			return fmt.Errorf("windows[%d].size: must be positive", i)
		}
		if w.Base+w.Size < w.Base {
			return fmt.Errorf("windows[%d]: base+size overflows the address space", i)
		}
		if w.Device == nil {
			return fmt.Errorf("windows[%d].device: required", i)
		}
		for j := 0; j < i; j++ {
			prev := c.Windows[j]
			if w.Name == prev.Name {
				return fmt.Errorf("windows[%d].name: duplicates windows[%d] (%q)", i, j, w.Name)
			}
			if w.Base < prev.Base+prev.Size && prev.Base < w.Base+w.Size {
				return fmt.Errorf("windows[%d]: address range overlaps windows[%d]", i, j)
			}
		}
	}
	return nil
}

// Preset is a named machine configuration in the preset registry.
type Preset struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// presetList holds the registered machine presets in listing order.
var presetList = []struct {
	Preset
	build func() Config
}{
	{Preset{"machine-a", "x86 + Optane PMEM (paper Machine A: TSO, eager drain)"}, ConfigA},
	{Preset{"machine-b-fast", "ARM + FPGA, 60 cyc / 10 GB/s link (paper Machine B-fast)"}, ConfigBFast},
	{Preset{"machine-b-slow", "ARM + FPGA, 200 cyc / 1.5 GB/s link (paper Machine B-slow)"}, ConfigBSlow},
	{Preset{"machine-c", "x86 + byte-addressable CXL SSD (extension Machine C)"}, ConfigC},
}

// Presets lists the registered machine presets in stable order.
func Presets() []Preset {
	out := make([]Preset, len(presetList))
	for i, p := range presetList {
		out[i] = p.Preset
	}
	return out
}

// PresetConfig returns the configuration of a named preset.
func PresetConfig(name string) (Config, bool) {
	for _, p := range presetList {
		if p.Name == name {
			return p.build(), true
		}
	}
	return Config{}, false
}
