package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// warmKey is the content-addressed identity of one run's warm state:
// the SHA-256 of the build, the workload, the machine's config hash and
// the run's effective values of the workload's WarmParams (after quick
// overrides, policy.window and axis values; an absent parameter counts
// as null). Two runs with equal keys load the same post-warmup state,
// so the second forks from the first's checkpoint, whichever spec, grid
// point, op, seed or table layout each came from.
//
// Nothing else is needed: the config hash covers presets, custom
// configs and device patches (through memdev.Describe), and every
// other input that shapes a warm phase is a declared warm parameter.
// Ops, the per-site op table, the seed and every parameter outside
// WarmParams feed only the measured phase: warm loads are
// baseline-crafted and RNG-free. Telemetry observes a run without
// changing it; a recorder's own forked state is keyed apart
// (siblingKey).
//
// Values are hashed in their JSON form, so an integer written in Go
// and the same number decoded from JSON share a key. It returns "" (load
// cold) for a value JSON cannot encode.
func warmKey(build string, wl Workload, configHash string, p Params) string {
	warm := make(map[string]any, len(wl.WarmParams))
	for _, name := range wl.WarmParams {
		warm[name] = p[name]
	}
	data, err := json.Marshal(struct {
		Build, Workload, Config string
		Warm                    map[string]any
	}{build, wl.Name, configHash, warm})
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// siblingKey derives the store key of state kept beside the machine
// checkpoint under runKey, such as a recorder's (telemetry.Fork). Like
// every store key it is a hex SHA-256, safe as a disk-tier file name.
func siblingKey(runKey, kind string) string {
	sum := sha256.Sum256([]byte(runKey + "\x00" + kind))
	return hex.EncodeToString(sum[:])
}
