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

// specBody is the POST /v1/scenarios and /v1/eval body: a scenario spec
// (see internal/scenario) and the quick flag. Holding the canonical
// spec, it is also their cache-key value, so reordered keys or extra
// whitespace still hit the same cache entry.
type specBody struct {
	Spec  json.RawMessage `json:"spec"`
	Quick bool            `json:"quick"`
}

// decodeSpec validates the spec of a scenario, eval or autotune submit:
// required (hint says what it must be), decoded, passed through check
// (nil for none) and canonicalized for the cache key. Failures are 400s.
func decodeSpec(raw json.RawMessage, hint string, check func(*scenario.Spec) error) (scenario.Spec, json.RawMessage, error) {
	if len(raw) == 0 {
		return scenario.Spec{}, nil, httpErrorf(http.StatusBadRequest, "spec: required (%s)", hint)
	}
	sp, err := scenario.Decode(raw)
	if err != nil {
		return sp, nil, httpErrorf(http.StatusBadRequest, "invalid scenario spec: %v", err)
	}
	if check != nil {
		if err := check(&sp); err != nil {
			return sp, nil, httpErrorf(http.StatusBadRequest, "%v", err)
		}
	}
	canon, err := sp.Canonical()
	if err != nil {
		return sp, nil, httpErrorf(http.StatusBadRequest, "invalid scenario spec: %v", err)
	}
	return sp, canon, nil
}

func (s *Server) prepareScenario(body *specBody) (any, runFunc, error) {
	sp, canon, err := decodeSpec(body.Spec, "a scenario spec object; GET /v1/registry lists the building blocks", nil)
	if err != nil {
		return nil, nil, err
	}
	return specBody{Spec: canon, Quick: body.Quick}, s.scenarioRun(sp, body.Quick), nil
}

// scenarioRun builds the run function for a scenario job: the guarded
// harness around the declarative grid runner, recorded when the spec
// has a telemetry block; a line report is also appended as text.
func (s *Server) scenarioRun(sp scenario.Spec, quick bool) runFunc {
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
			rep, err := recorded(ctx, j, sp.Telemetry, func(ctx context.Context) error {
				return bench.RunSpec(ctx, out, sp, quick)
			})
			if rep != nil {
				fmt.Fprintln(out)
				rep.WriteText(out)
			}
			return err
		})
}

// recorded runs body under a per-job telemetry recorder when t asks for
// one (in the context, so concurrent jobs never see each other's
// machines), attaches the timeline and line report as job artifacts
// (GET /v1/jobs/{id}/timeline, .../linereport) and returns the report.
func recorded(ctx context.Context, j *job, t *scenario.TelemetrySpec,
	body func(context.Context) error) (*telemetry.LineReport, error) {
	if t == nil {
		return nil, body(ctx)
	}
	rec := telemetry.New(telemetry.Config{
		Timeline:    t.Timeline,
		LineReport:  t.LineReport,
		MaxEvents:   t.MaxEvents,
		BucketBytes: t.BucketBytes,
	})
	err := body(scenario.WithRecorder(ctx, rec))
	if t.Timeline {
		var b bytes.Buffer
		if werr := rec.WriteTimeline(&b); werr == nil {
			j.setArtifact("timeline", b.Bytes())
		}
	}
	if !t.LineReport {
		return nil, err
	}
	rep := rec.LineReport(telemetry.ReportLines)
	var b bytes.Buffer
	if werr := rep.WriteJSON(&b); werr == nil {
		j.setArtifact("linereport", b.Bytes())
	}
	return rep, err
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
