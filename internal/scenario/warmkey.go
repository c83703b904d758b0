package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
)

// WarmPrefixKey returns the content-addressed identity of a spec's warm
// prefix: the SHA-256 of the spec's canonical JSON with everything that
// cannot shape the warm phase masked out, joined with the build version
// and the phase index. Masked are the sweep axes and swept parameters,
// the per-site op table, the workload parameters (and their run.quick
// overrides) that are not among the workload's WarmParams, run.seed,
// and the telemetry block. So two grid points of one sweep, two sweeps
// differing only in swept values or axis order, and two single-point
// specs differing only in seed, mix, ops or threads all share the key.
// Everything else — warm parameters, machine, policy window, ops,
// columns, even cosmetic fields — changes it, trading spurious misses
// for guaranteed correctness.
//
// The key deliberately does not resolve parameter values: the runner
// combines it at runtime with the machine's config hash and the
// effective values of the workload's warm parameters (see warmRunKey).
// That second stage is what makes masking safe: whatever the spec
// writes, a run forks only from a state loaded with the same warm
// parameter values on the same machine and build. The masked
// parameters feed only the measured phase, which every run executes.
func (s Spec) WarmPrefixKey(build string, phase int) (string, error) {
	masked := s

	// Swept parameter names, sorted — the axis order and value lists are
	// masked, only the set of swept names survives.
	axisParams := make([]string, 0, len(s.Policy.Axes))
	for _, a := range s.Policy.Axes {
		axisParams = append(axisParams, a.Param)
	}
	sort.Strings(axisParams)

	// Keep only the parameters that shape the warm phase: an axis
	// overrides a swept parameter's base value, and a parameter outside
	// WarmParams feeds only the measured phase. An unregistered workload
	// declares nothing, so every non-swept parameter stays.
	wl, known := Get(s.Workload.Name)
	maskMap := func(in map[string]any) map[string]any {
		if in == nil {
			return nil
		}
		out := make(map[string]any, len(in))
		for k, v := range in {
			if !known || containsStr(wl.WarmParams, k) {
				out[k] = v
			}
		}
		for _, p := range axisParams {
			delete(out, p)
		}
		return out
	}
	masked.Workload.Params = maskMap(s.Workload.Params)
	masked.Run.Quick = maskMap(s.Run.Quick)
	masked.Policy.Axes = nil
	// The per-site op table is a measured-phase choice by the same
	// contract that masks the "op" axis (below): warm loads are
	// baseline-crafted. Masking it lets every candidate plan the
	// autotuner tries fork from one shared warm checkpoint.
	masked.Policy.Table = nil
	// The seed drives only measured-phase randomness (warm loads are
	// RNG-free), and telemetry observes a run without changing it; a
	// recorder's own forked state is keyed apart (siblingKey).
	masked.Run.Seed = 0
	masked.Telemetry = nil
	// Columns, footer and ops shape the rendered table, not the
	// simulation — but masking them would let two specs with different
	// non-swept content collide if a future field ever feeds simulation.
	// Keep them: a cosmetic change costing one cold load is the safe
	// direction. The "op" axis is masked with the rest of the axes; ops
	// never affect the warm phase (loads are baseline-crafted).

	canon, err := json.Marshal(masked)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "scenario\x00%s\x00%d\x00", build, phase)
	h.Write(canon)
	for _, p := range axisParams {
		fmt.Fprintf(h, "\x00axis:%s", p)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// warmRunKey narrows a spec's warm-prefix key to one grid point: the
// machine's config hash plus the effective values of the workload's
// declared warm parameters. Grid points differing only in measured-
// phase parameters (op, threads, mix, ...) map to the same run key and
// fork from the same checkpoint.
func warmRunKey(prefixKey, configHash string, warmParams []string, p Params) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s", prefixKey, configHash)
	names := append([]string(nil), warmParams...)
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "\x00%s=%v", n, p[n])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// siblingKey derives the store key of state kept beside the machine
// checkpoint under runKey, such as a recorder's (telemetry.Fork). Like
// every store key it is a hex SHA-256, safe as a disk-tier file name.
func siblingKey(runKey, kind string) string {
	sum := sha256.Sum256([]byte(runKey + "\x00" + kind))
	return hex.EncodeToString(sum[:])
}
