package scenario_test

import (
	"testing"

	"prestores/internal/scenario"

	_ "prestores/internal/workloads/micro" // registers listing1/2/3
)

// fuzzSeeds are representative inputs: valid specs exercising every
// feature (device patches, machine/op axes, quick lists, footers),
// near-miss invalid specs, and plain garbage.
var fuzzSeeds = []string{
	``,
	`not json`,
	`null`,
	`[]`,
	`{}`,
	`{"version":1}`,
	`{"version":1,"workload":{"name":"listing3"},"machine":{"preset":"machine-a"},
	  "policy":{"ops":["none","clean"],"columns":[{"title":"cyc","op":"none","metric":"cycles_per_rew","format":"f1"}]}}`,
	`{"version":1,"workload":{"name":"listing1","params":{"elem_size":256,"volume":1048576}},
	  "machine":{"preset":"machine-a","devices":{"pmem":{"read_lat":500,"granularity":512}}},
	  "policy":{"ops":["none"],"axes":[{"param":"threads","values":[1,2],"quick":[1]}],
	    "columns":[{"title":"t","axis":"threads"},{"title":"amp","op":"none","metric":"write_amp","format":"f2"}]},
	  "run":{"quick":{"volume":262144},"seed":7,"max_points":16}}`,
	`{"version":1,"workload":{"name":"listing2"},
	  "policy":{"ops":["none","demote"],
	    "axes":[{"param":"machine","values":["machine-b-fast","machine-b-slow"],"labels":["F","S"]}],
	    "columns":[{"title":"m","axis":"machine"},
	      {"title":"gain","op":"none","metric":"cycles_per_iter","den_op":"demote","format":"pct"}],
	    "footer":["(a footer line)"]}}`,
	`{"version":1,"workload":{"name":"listing3"},"machine":{"preset":"machine-a"},
	  "policy":{"axes":[{"param":"op","values":["none","clean"]}],
	    "columns":[{"title":"mode","axis":"op"},{"title":"cyc","metric":"cycles_per_rew"}]}}`,
	`{"version":1,"workload":{"name":"listing3"},"machine":{"preset":"nope"},
	  "policy":{"ops":["none"],"columns":[{"title":"c","op":"none","metric":"elapsed"}]}}`,
	`{"version":1,"workload":{"name":"listing1","params":{"elem_size":1.5}},
	  "machine":{"preset":"machine-a"},
	  "policy":{"ops":["none"],"columns":[{"title":"c","op":"none","metric":"elapsed"}]}}`,
	`{"version":1,"workload":{"name":"listing3"},
	  "machine":{"config":{"cores":2,"clock_hz":1000000000,"line_size":64,
	    "l1":{"size":32768,"ways":8,"line_size":64},
	    "l2":{"size":262144,"ways":8,"line_size":64},
	    "llc":{"size":4194304,"ways":16,"line_size":64},
	    "sb_entries":56,"mlp":10,"wc_entries":16,"wb_queue_cap":64,
	    "windows":[{"name":"dram","base":0,"size":1073741824,"device":{"kind":"dram"}},
	      {"name":"pmem","base":1073741824,"size":1073741824,"device":{"kind":"pmem","read_lat":300}}]}},
	  "policy":{"ops":["none"],"columns":[{"title":"c","op":"none","metric":"elapsed"}]}}`,
	// machine.* axes: a config field, a device parameter, a bad path.
	`{"version":1,"workload":{"name":"listing1","params":{"elem_size":1024,"volume":1048576}},
	  "machine":{"preset":"machine-a"},
	  "policy":{"ops":["none","clean"],"axes":[{"param":"machine.llc.policy","values":["QLRU","LRU"]}],
	    "columns":[{"title":"llc","axis":"machine.llc.policy","labels":["q","l"]},
	      {"title":"amp","op":"none","metric":"write_amp","format":"f2"}]}}`,
	`{"version":1,"workload":{"name":"listing1","params":{"elem_size":1024,"volume":1048576}},
	  "machine":{"preset":"machine-a","devices":{"pmem":{"read_lat":500}}},
	  "policy":{"ops":["none"],"axes":[{"param":"machine.devices.pmem.buffer_entries","values":[8,32],"quick":[8]}],
	    "columns":[{"title":"buf","axis":"machine.devices.pmem.buffer_entries"},
	      {"title":"cyc","op":"none","metric":"elapsed","format":"m1"}]}}`,
	`{"version":1,"workload":{"name":"listing3"},"machine":{"preset":"machine-a"},
	  "policy":{"ops":["none"],"axes":[{"param":"machine.llc.nope","values":[1]}],
	    "columns":[{"title":"c","op":"none","metric":"elapsed"}]}}`,
	// ways*line_size wraps to 0: the config check must not divide by it.
	`{"version":1,"workload":{"name":"listing3"},
	  "machine":{"config":{"l1":{"size":64,"ways":288230376151711744,"line_size":64},"windows":[]}},
	  "policy":{"ops":["none"],"columns":[{"title":"c","op":"none","metric":"elapsed"}]}}`,
}

// FuzzDecode throws arbitrary JSON at the spec decoder: it must return
// a validated spec or a deterministic error, and never panic. Valid
// specs must survive the canonical round trip with a stable key.
func FuzzDecode(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s1, err1 := scenario.Decode(data)
		s2, err2 := scenario.Decode(data)
		switch {
		case (err1 == nil) != (err2 == nil):
			t.Fatalf("nondeterministic decode: %v vs %v", err1, err2)
		case err1 != nil:
			if err1.Error() != err2.Error() {
				t.Fatalf("nondeterministic error: %q vs %q", err1, err2)
			}
			return
		}
		_ = s2
		c, err := s1.Canonical()
		if err != nil {
			t.Fatalf("canonical of valid spec failed: %v", err)
		}
		rt, err := scenario.Decode(c)
		if err != nil {
			t.Fatalf("canonical form of a valid spec failed to decode: %v\njson: %s", err, c)
		}
		k1, err := s1.Key()
		if err != nil {
			t.Fatal(err)
		}
		k2, err := rt.Key()
		if err != nil {
			t.Fatal(err)
		}
		if k1 != k2 {
			t.Fatalf("key changed across round trip: %s vs %s", k1, k2)
		}
	})
}
