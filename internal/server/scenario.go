package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"prestores/internal/bench"
	"prestores/internal/memdev"
	"prestores/internal/scenario"
	"prestores/internal/sim"
	"prestores/internal/telemetry"
	"prestores/internal/workloads/kv"
)

// scenarioSpec is the POST /v1/scenarios body: a full declarative
// scenario spec (see internal/scenario) plus the quick flag.
type scenarioSpec struct {
	Spec  json.RawMessage `json:"spec"`
	Quick bool            `json:"quick"`
}

// scenarioKey is the cache-key form of a scenario submit: the spec's
// canonical bytes rather than the client's formatting, so semantically
// identical submits — reordered keys, extra whitespace — coalesce onto
// the same cache entry.
type scenarioKey struct {
	Spec  json.RawMessage `json:"spec"`
	Quick bool            `json:"quick"`
}

func (s *Server) handleSubmitScenario(w http.ResponseWriter, r *http.Request) {
	var body scenarioSpec
	if !decodeBody(w, r, &body) {
		return
	}
	if len(body.Spec) == 0 {
		WriteError(w, http.StatusBadRequest, "spec: required (a scenario spec object; GET /v1/registry lists the building blocks)")
		return
	}
	sp, err := scenario.Decode(body.Spec)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "invalid scenario spec: %v", err)
		return
	}
	canon, err := sp.Canonical()
	if err != nil {
		WriteError(w, http.StatusBadRequest, "invalid scenario spec: %v", err)
		return
	}
	key := scenarioKey{Spec: canon, Quick: body.Quick}
	s.accept(w, r, "scenario", key, s.scenarioRun(sp, body.Quick))
}

// scenarioRun builds the run function for a scenario job: the guarded
// analysis harness around the declarative grid runner. A spec with a
// telemetry block gets a per-job recorder attached (via the context,
// so concurrent jobs never see each other's machines); the
// recorded timeline and line report become job artifacts served from
// GET /v1/jobs/{id}/timeline and .../linereport.
func (s *Server) scenarioRun(sp scenario.Spec, quick bool) func(context.Context, *job) bench.Result {
	name := sp.Name
	if name == "" {
		name = "custom"
	}
	title := sp.Title
	if title == "" {
		title = "custom scenario"
	}
	return s.guarded("scenario/"+name, title,
		func(ctx context.Context, j *job, out io.Writer) error {
			t := sp.Telemetry
			if t == nil {
				return bench.RunSpec(ctx, out, sp, quick)
			}
			rec := telemetry.New(telemetry.Config{
				Timeline:    t.Timeline,
				LineReport:  t.LineReport,
				MaxEvents:   t.MaxEvents,
				BucketBytes: t.BucketBytes,
			})
			err := bench.RunSpec(scenario.WithRecorder(ctx, rec), out, sp, quick)
			if t.Timeline {
				var b bytes.Buffer
				if werr := rec.WriteTimeline(&b); werr == nil {
					j.setArtifact("timeline", b.Bytes())
				}
			}
			if t.LineReport {
				rep := rec.LineReport(telemetry.ReportLines)
				var b bytes.Buffer
				if werr := rep.WriteJSON(&b); werr == nil {
					j.setArtifact("linereport", b.Bytes())
				}
				fmt.Fprintln(out)
				rep.WriteText(out)
			}
			return err
		})
}

// registryDevices describes the device-kind registry: the kinds a
// machine.devices patch (or a custom config) may instantiate and the
// parameter keys each accepts.
type registryDevices struct {
	Kinds  []string `json:"kinds"`
	Params []string `json:"params"`
}

// registryWorkload is one workload's registry listing.
type registryWorkload struct {
	Name        string              `json:"name"`
	Description string              `json:"description,omitempty"`
	Params      []scenario.ParamDef `json:"params,omitempty"`
	Ops         []string            `json:"ops"`
	Metrics     []string            `json:"metrics"`
	// Sites lists the workload's named pre-store call sites — the
	// dimensions a policy.table (and the autotuner) can steer per-site.
	Sites []string `json:"sites,omitempty"`
}

// registryResponse is the GET /v1/registry body: every building block a
// scenario spec may reference.
type registryResponse struct {
	Machines  []sim.Preset       `json:"machines"`
	Devices   registryDevices    `json:"devices"`
	Workloads []registryWorkload `json:"workloads"`
	Stores    []string           `json:"stores"`
	Formats   []string           `json:"formats"`
	Specs     []string           `json:"spec_experiments"`
	// DirtBuster names the bundled workloads POST /v1/dirtbuster and
	// POST /v1/trace analyze.
	DirtBuster []string `json:"dirtbuster_workloads"`
}

func (s *Server) handleRegistry(w http.ResponseWriter, r *http.Request) {
	resp := registryResponse{
		Machines: sim.Presets(),
		Devices:  registryDevices{Kinds: memdev.Kinds(), Params: memdev.ParamNames()},
		Stores:   kv.Stores(),
		Formats:  scenario.Formats(),
		Specs:    bench.SpecIDs(),
	}
	for _, wl := range s.cfg.Workloads(true) {
		resp.DirtBuster = append(resp.DirtBuster, wl.Name)
	}
	for _, wl := range scenario.Workloads() {
		resp.Workloads = append(resp.Workloads, registryWorkload{
			Name:        wl.Name,
			Description: wl.Description,
			Params:      wl.Params,
			Ops:         wl.Ops,
			Metrics:     wl.MetricNames,
			Sites:       wl.Sites,
		})
	}
	WriteJSON(w, http.StatusOK, resp)
}
