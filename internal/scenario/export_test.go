package scenario

import "fmt"

// WarmKey exposes warmKey to the external warm-key tests.
var WarmKey = warmKey

// FirstWarmKey returns the warm key the runner gives the spec's first
// grid point on build: the point's machine and its effective
// parameters, exactly as Exec resolves them.
func (s Spec) FirstWarmKey(build string, quick bool) (string, error) {
	wl, ok := Get(s.Workload.Name)
	if !ok {
		return "", fmt.Errorf("unknown workload %q", s.Workload.Name)
	}
	axes := s.axes(quick)
	preset, _, p := s.point(axes, make([]int, len(axes)), s.baseParams(quick))
	m, err := s.buildMachine(preset)
	if err != nil {
		return "", err
	}
	return warmKey(build, wl, m.ConfigHash(), wl.runParams(p)), nil
}
