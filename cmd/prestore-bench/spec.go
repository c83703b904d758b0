package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"prestores/internal/bench"
	"prestores/internal/scenario"
)

// writeSpec prints the declarative spec behind a spec-driven
// experiment as indented JSON — ready to edit and feed back through
// -spec, locally or via POST /v1/scenarios.
func writeSpec(w io.Writer, id string) error {
	s, ok := bench.SpecFor(id)
	if !ok {
		return fmt.Errorf("experiment %q is not spec-driven (spec-driven: %s)",
			id, strings.Join(bench.SpecIDs(), ", "))
	}
	data, err := s.Canonical()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, data, "", "  "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	_, err = w.Write(buf.Bytes())
	return err
}

// runSpecFile runs a scenario spec from a JSON file: validated here
// either way, then executed in process or submitted to a prestored
// daemon (whose output streams back byte-identical). A non-negative
// seed overrides the workload's own RNG seed parameter; workloads
// without a seed parameter reject it with the usual validation error.
func runSpecFile(ctx context.Context, w io.Writer, path, serverURL string, quick bool, seed int64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sp, err := scenario.Decode(data)
	if err != nil {
		return fmt.Errorf("%s: invalid scenario spec: %v", path, err)
	}
	if seed >= 0 {
		if sp.Workload.Params == nil {
			sp.Workload.Params = map[string]any{}
		}
		sp.Workload.Params["seed"] = float64(seed)
		if err := sp.Validate(); err != nil {
			return fmt.Errorf("-seed %d: %v", seed, err)
		}
	}
	if serverURL != "" {
		return runSpecRemote(ctx, w, serverURL, sp, quick)
	}
	return bench.RunSpec(ctx, w, sp, quick)
}

// runSpecRemote submits the spec to a prestored daemon's /v1/scenarios
// endpoint and streams the job's output, or prints the cached result.
func runSpecRemote(ctx context.Context, w io.Writer, base string, sp scenario.Spec, quick bool) error {
	canon, err := sp.Canonical()
	if err != nil {
		return err
	}
	body, err := json.Marshal(struct {
		Spec  json.RawMessage `json:"spec"`
		Quick bool            `json:"quick"`
	}{canon, quick})
	if err != nil {
		return err
	}
	_, res, err := runJob(ctx, w, strings.TrimRight(base, "/"), "/v1/scenarios", body)
	if err != nil {
		return err
	}
	if res.Failed() {
		return fmt.Errorf("scenario failed: %s", res.Err)
	}
	return nil
}
