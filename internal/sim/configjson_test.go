package sim

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestPresetRoundTrip checks, for every registered machine preset,
// that preset → JSON → Config reproduces the hand-written constructor
// exactly (ISSUE 4 satellite: round-trip equality for every preset).
func TestPresetRoundTrip(t *testing.T) {
	for _, p := range Presets() {
		want, ok := PresetConfig(p.Name)
		if !ok {
			t.Fatalf("PresetConfig(%q) missing", p.Name)
		}
		data, err := json.Marshal(want)
		if err != nil {
			t.Fatalf("%s: marshal: %v", p.Name, err)
		}
		var got Config
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("%s: unmarshal: %v\njson: %s", p.Name, err, data)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round-trip mismatch\n got: %+v\nwant: %+v\njson: %s", p.Name, got, want, data)
		}
		// Second generation must be byte-stable (canonical form).
		data2, err := json.Marshal(got)
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", p.Name, err)
		}
		if string(data) != string(data2) {
			t.Errorf("%s: marshal not byte-stable:\n first: %s\nsecond: %s", p.Name, data, data2)
		}
	}
}

func TestPresetsRegistered(t *testing.T) {
	var names []string
	for _, p := range Presets() {
		names = append(names, p.Name)
		if p.Description == "" {
			t.Errorf("preset %q has no description", p.Name)
		}
	}
	want := []string{"machine-a", "machine-b-fast", "machine-b-slow", "machine-c"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("Presets() = %v, want %v", names, want)
	}
	if _, ok := PresetConfig("machine-z"); ok {
		t.Error("PresetConfig of unknown preset should report !ok")
	}
}

func TestConfigValidateFieldPaths(t *testing.T) {
	cases := []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.Windows = nil }, "windows: at least one window is required"},
		{func(c *Config) { c.Windows[1].Size = 0 }, "windows[1].size: must be positive"},
		{func(c *Config) { c.Windows[1].Name = "" }, "windows[1].name: required"},
		{func(c *Config) { c.Windows[1].Name = c.Windows[0].Name },
			`windows[1].name: duplicates windows[0] ("dram")`},
		{func(c *Config) { c.Windows[1].Base = c.Windows[0].Base },
			"windows[1]: address range overlaps windows[0]"},
		{func(c *Config) { c.Windows[1].Device = nil }, "windows[1].device: required"},
		{func(c *Config) { c.LineSize = 96 }, "line_size: must be a power of two (got 96)"},
		{func(c *Config) { c.L1.Ways = -1 }, "l1.ways: must be positive when size is set (got -1)"},
		{func(c *Config) { c.LLC.Size = 100 },
			"llc.size: must be a multiple of ways*line_size (got 100 with 16 ways of 64 B lines)"},
		{func(c *Config) { c.MLP = -2 }, "mlp: must be non-negative (got -2)"},
	}
	for _, tc := range cases {
		cfg := ConfigA()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil || err.Error() != tc.want {
			t.Errorf("Validate() = %v, want %q", err, tc.want)
		}
	}
	cfg := ConfigA()
	if err := cfg.Validate(); err != nil {
		t.Errorf("ConfigA should validate: %v", err)
	}
}

func TestConfigUnmarshalErrors(t *testing.T) {
	cases := []struct {
		json string
		want string
	}{
		{`{"drain":"sideways","windows":[]}`, `drain: unknown drain mode "sideways" (one of [eager lazy])`},
		{`{"l1":{"policy":"MRU"},"windows":[]}`, `l1.policy: unknown replacement policy "MRU" (one of [LRU PLRU FIFO Random QLRU SRRIP])`},
		{`{"windows":[{"name":"dram","base":0,"size":1024,"device":{"kind":"flash"}}]}`,
			`windows[0].device.kind: unknown device kind "flash" (one of [cxlssd dram pmem remote])`},
		{`{"windows":[]}`, "windows: at least one window is required"},
		// ways*line_size wraps to 0 in 64 bits: an error, not a divide by zero.
		{`{"l1":{"size":64,"ways":288230376151711744,"line_size":64},"windows":[]}`,
			"l1.size: must be a multiple of ways*line_size (got 64 with 288230376151711744 ways of 64 B lines)"},
	}
	for _, tc := range cases {
		var c Config
		err := json.Unmarshal([]byte(tc.json), &c)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Unmarshal(%s) error = %v, want %q", tc.json, err, tc.want)
		}
	}
}

// FuzzConfigJSON throws arbitrary bytes at the machine-config decoder,
// which every scenario spec with a custom machine reaches: no input may
// panic, and a config that decodes must re-marshal to JSON that decodes
// again and re-marshals to the same bytes.
func FuzzConfigJSON(f *testing.F) {
	for _, p := range Presets() {
		cfg, _ := PresetConfig(p.Name)
		data, err := json.Marshal(cfg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range []string{
		``, `null`, `{}`, `{"windows":[]}`,
		`{"drain":"lazy","l1":{"size":32768,"ways":8,"policy":"PLRU"},
		  "windows":[{"name":"dram","base":0,"size":1024,"device":{"kind":"dram"}}]}`,
		`{"l1":{"size":64,"ways":288230376151711744,"line_size":64},"windows":[]}`,
		`{"l1":{"size":18446744073709551615,"ways":-1},"windows":[]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Config
		if err := json.Unmarshal(data, &c); err != nil {
			return
		}
		first, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("a decoded config does not marshal: %v", err)
		}
		var again Config
		if err := json.Unmarshal(first, &again); err != nil {
			t.Fatalf("a re-marshaled config does not decode: %v\njson: %s", err, first)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if string(first) != string(second) {
			t.Fatalf("round trip changed the config:\n first: %s\nsecond: %s", first, second)
		}
	})
}

// TestConfigBNaming locks the satellite bugfix: preset tunings keep
// their historical names, custom tunings are named from the actual
// parameters, and non-positive tunings are rejected.
func TestConfigBNaming(t *testing.T) {
	if got := ConfigB(MachineBFastOptions()).Name; got != "machine-B-fast (ARM + FPGA)" {
		t.Errorf("fast preset name = %q", got)
	}
	if got := ConfigB(MachineBSlowOptions()).Name; got != "machine-B-slow (ARM + FPGA)" {
		t.Errorf("slow preset name = %q", got)
	}
	// A custom low-latency tuning used to be mislabeled "fast"; a
	// custom tuning at >= 100 cycles was mislabeled "slow".
	got := ConfigB(MachineBConfig{FPGALatency: 120, FPGABandwidth: 8e9}).Name
	if want := "machine-B (ARM + FPGA, 120 cyc, 8 GB/s)"; got != want {
		t.Errorf("custom tuning name = %q, want %q", got, want)
	}
	if _, err := ConfigBChecked(MachineBConfig{FPGALatency: 0, FPGABandwidth: 10e9}); err == nil ||
		err.Error() != "fpga_latency: must be positive (got 0)" {
		t.Errorf("zero latency error = %v", err)
	}
	if _, err := ConfigBChecked(MachineBConfig{FPGALatency: 60, FPGABandwidth: -1}); err == nil ||
		err.Error() != "fpga_bandwidth: must be positive (got -1)" {
		t.Errorf("negative bandwidth error = %v", err)
	}
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "fpga_bandwidth") {
			t.Errorf("ConfigB with invalid tuning: recover = %v", r)
		}
	}()
	ConfigB(MachineBConfig{FPGALatency: 60})
}
