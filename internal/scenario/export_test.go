package scenario

import (
	"fmt"

	"prestores/internal/sim"
)

// WarmKey exposes warmKey to the external warm-key tests.
var WarmKey = warmKey

// SiblingKey exposes siblingKey, under which a run's recorder state is
// stored beside its machine checkpoint.
var SiblingKey = siblingKey

// FirstWarmKey returns the warm key the runner gives the spec's first
// grid point on build: the point's machine and its effective
// parameters, exactly as Exec resolves them.
func (s Spec) FirstWarmKey(build string, quick bool) (string, error) {
	wl, ok := Get(s.Workload.Name)
	if !ok {
		return "", fmt.Errorf("unknown workload %q", s.Workload.Name)
	}
	axes := s.axes(quick)
	preset, patches, _, p := s.point(axes, make([]int, len(axes)), s.baseParams(quick))
	cfg, err := s.machineConfig(preset, patches)
	if err != nil {
		return "", err
	}
	return warmKey(build, wl, sim.NewMachine(cfg).ConfigHash(), wl.runParams(p)), nil
}
