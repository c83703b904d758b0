package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// customScenario is a spec no named experiment covers: a preset machine
// with a patched (non-preset) PMEM read latency and non-default
// workload parameters. Small enough to run in unit tests.
const customScenario = `{
  "version": 1,
  "name": "custom-pmem",
  "title": "listing1 with a slow PMEM DIMM",
  "machine": {"preset": "machine-a", "devices": {"pmem": {"read_lat": 777}}},
  "workload": {"name": "listing1",
    "params": {"elem_size": 512, "threads": 1, "volume": 1048576, "reread": false, "seed": 5}},
  "policy": {
    "ops": ["none", "clean"],
    "columns": [
      {"title": "base amp", "op": "none", "metric": "write_amp", "format": "f2"},
      {"title": "clean amp", "op": "clean", "metric": "write_amp", "format": "f2"},
      {"title": "speedup", "op": "none", "metric": "elapsed", "den_op": "clean", "format": "x2"}
    ]
  }
}`

// customScenarioReordered is the same scenario with its object keys in
// a different order and different whitespace: canonicalization must map
// it to the same cache entry.
const customScenarioReordered = `{
  "workload": {"params": {"seed": 5, "volume": 1048576, "reread": false, "threads": 1, "elem_size": 512},
    "name": "listing1"},
  "policy": {
    "columns": [
      {"title": "base amp", "metric": "write_amp", "op": "none", "format": "f2"},
      {"format": "f2", "title": "clean amp", "op": "clean", "metric": "write_amp"},
      {"title": "speedup", "den_op": "clean", "op": "none", "metric": "elapsed", "format": "x2"}
    ],
    "ops": ["none", "clean"]
  },
  "machine": {"devices": {"pmem": {"read_lat": 777}}, "preset": "machine-a"},
  "title": "listing1 with a slow PMEM DIMM",
  "name": "custom-pmem",
  "version": 1
}`

func TestScenarioSubmitRunsAndCaches(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	code, data := postRaw(t, ts.URL+"/v1/scenarios",
		`{"spec": `+customScenario+`, "quick": true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (want 202): %s", code, data)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	st = waitFinal(t, ts.URL, st.ID)
	if st.State != "done" || st.Result == nil {
		t.Fatalf("scenario job did not finish cleanly: %+v", st)
	}
	out := st.Result.Output
	for _, want := range []string{"=== custom-pmem: listing1 with a slow PMEM DIMM ===",
		"base amp", "clean amp", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// Resubmitting the same scenario — keys reordered, different
	// whitespace — must be a cache hit on the canonicalized spec.
	code, data = postRaw(t, ts.URL+"/v1/scenarios",
		`{"spec": `+customScenarioReordered+`, "quick": true}`)
	if code != http.StatusOK {
		t.Fatalf("resubmit: status %d (want 200 cache hit): %s", code, data)
	}
	var second JobStatus
	if err := json.Unmarshal(data, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.Result == nil {
		t.Fatalf("resubmit not served from cache: %+v", second)
	}
	if second.Result.Output != out {
		t.Fatalf("cached output differs:\n got: %q\nwant: %q", second.Result.Output, out)
	}

	// quick=false is different work: not a cache hit.
	code, data = postRaw(t, ts.URL+"/v1/scenarios",
		`{"spec": `+customScenario+`, "quick": false}`)
	if code != http.StatusAccepted {
		t.Fatalf("full-mode submit: status %d (want 202): %s", code, data)
	}
	var third JobStatus
	if err := json.Unmarshal(data, &third); err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatalf("full-mode submit served from quick cache: %+v", third)
	}
	waitFinal(t, ts.URL, third.ID)
}

func TestScenarioSubmitRejectsInvalidSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	cases := []struct {
		name, body, wantErr string
	}{
		{"missing spec", `{"quick": true}`, "spec: required"},
		{"bad version", `{"spec": {"version": 9}}`, "version: must be 1"},
		{"unknown workload param",
			`{"spec": {"version": 1, "machine": {"preset": "machine-a"},
			  "workload": {"name": "listing1", "params": {"volumez": 1}},
			  "policy": {"ops": ["none"], "columns": [{"title": "amp", "op": "none", "metric": "write_amp"}]}}}`,
			"workload.params.volumez"},
		{"bad device patch",
			`{"spec": {"version": 1, "machine": {"preset": "machine-a", "devices": {"pmem": {"read_lat": -4}}},
			  "workload": {"name": "listing1"},
			  "policy": {"ops": ["none"], "columns": [{"title": "amp", "op": "none", "metric": "write_amp"}]}}}`,
			"machine.devices.pmem.read_lat"},
		{"unknown spec field",
			`{"spec": {"version": 1, "machina": {}}}`, "machina"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, data := postRaw(t, ts.URL+"/v1/scenarios", tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d (want 400): %s", code, data)
			}
			var body map[string]string
			if err := json.Unmarshal(data, &body); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(body["error"], tc.wantErr) {
				t.Errorf("error %q does not name %q", body["error"], tc.wantErr)
			}
		})
	}
}

func TestRegistryListsAllBuildingBlocks(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, err := http.Get(ts.URL + "/v1/registry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/registry: status %d", resp.StatusCode)
	}
	var reg registryResponse
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}

	var machines []string
	for _, p := range reg.Machines {
		machines = append(machines, p.Name)
	}
	wantMachines := []string{"machine-a", "machine-b-fast", "machine-b-slow", "machine-c"}
	if len(machines) != len(wantMachines) {
		t.Fatalf("machines = %v, want %v", machines, wantMachines)
	}
	for i, m := range wantMachines {
		if machines[i] != m {
			t.Fatalf("machines = %v, want %v", machines, wantMachines)
		}
	}

	wantKinds := []string{"cxlssd", "dram", "pmem", "remote"}
	if len(reg.Devices.Kinds) != len(wantKinds) {
		t.Fatalf("device kinds = %v, want %v", reg.Devices.Kinds, wantKinds)
	}
	if len(reg.Devices.Params) == 0 {
		t.Fatal("no device params listed")
	}

	wantWorkloads := []string{"btree", "listing1", "listing2", "listing3",
		"nas", "phoronix", "sites", "tensor-train", "x9", "ycsb"}
	byName := map[string]registryWorkload{}
	for _, w := range reg.Workloads {
		byName[w.Name] = w
	}
	for _, name := range wantWorkloads {
		w, ok := byName[name]
		if !ok {
			t.Errorf("workload %s missing from registry", name)
			continue
		}
		if len(w.Ops) == 0 || len(w.Metrics) == 0 {
			t.Errorf("workload %s listing incomplete: %+v", name, w)
		}
	}
	// Site-bearing workloads must advertise their pre-store sites — the
	// dimensions POST /v1/autotune searches over.
	if got := byName["sites"].Sites; len(got) != 2 || got[0] != "hot" || got[1] != "once" {
		t.Errorf("sites workload sites = %v, want [hot once]", got)
	}
	if got := byName["ycsb"].Sites; len(got) != 1 || got[0] != "craft" {
		t.Errorf("ycsb workload sites = %v, want [craft]", got)
	}
	if len(reg.Workloads) != len(wantWorkloads) {
		t.Errorf("registry lists %d workloads, want %d: %+v", len(reg.Workloads), len(wantWorkloads), byName)
	}

	wantStores := []string{"clht", "masstree"}
	if len(reg.Stores) != len(wantStores) || reg.Stores[0] != "clht" || reg.Stores[1] != "masstree" {
		t.Errorf("stores = %v, want %v", reg.Stores, wantStores)
	}

	if len(reg.Formats) == 0 {
		t.Error("no column formats listed")
	}
	wantSpecs := []string{"ablate-dir", "ablate-drain", "ablate-llc", "ablate-pmembuf",
		"ext-cxlssd", "ext-prefetch", "ext-seqlog", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig3", "fig5", "fig7", "fig8", "kv-threads", "skipvsclean", "x9", "ycsb-mixes"}
	if len(reg.Specs) != len(wantSpecs) {
		t.Fatalf("spec experiments = %v, want %v", reg.Specs, wantSpecs)
	}
	for i, id := range wantSpecs {
		if reg.Specs[i] != id {
			t.Fatalf("spec experiments = %v, want %v", reg.Specs, wantSpecs)
		}
	}
}
