package autotune

import (
	"bytes"
	"encoding/json"

	"prestores/internal/scenario"
	"prestores/internal/telemetry"
)

func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// TrajectoryVersion is the schema version of the trajectory artifact.
const TrajectoryVersion = 1

// Iteration records one evaluated candidate plan, in evaluation order.
type Iteration struct {
	Iter   int    `json:"iter"`
	Source string `json:"source"` // baseline | seed | climb | restart
	Plan   Plan   `json:"plan"`
	// Metrics is the run's full metric map (json-sorted keys).
	Metrics   scenario.Metrics `json:"metrics"`
	Objective float64          `json:"objective"`
	// Best marks iterations that improved the global best when they were
	// evaluated; Accepted marks plans the search moved to.
	Best     bool `json:"best,omitempty"`
	Accepted bool `json:"accepted,omitempty"`
}

// Probe summarizes the baseline run's line report and the decision
// rule it triggered.
type Probe struct {
	Totals   telemetry.LineTotals `json:"totals"`
	WriteAmp float64              `json:"write_amp"`
	SeedOp   string               `json:"seed_op"`
	Rule     string               `json:"rule"`
}

// Winner is the best plan the search found.
type Winner struct {
	Iter      int              `json:"iter"`
	Plan      Plan             `json:"plan"`
	Metrics   scenario.Metrics `json:"metrics"`
	Objective float64          `json:"objective"`
	// Spec is the canonical single-point spec carrying the winning plan;
	// re-evaluating it reproduces Metrics exactly.
	Spec json.RawMessage `json:"spec"`
}

// Trajectory is the search's full audit trail, rendered as the job's
// "trajectory" artifact. Its JSON encoding is byte-reproducible: no
// wall-clock state, fixed field order, sorted map keys.
type Trajectory struct {
	Version   int      `json:"version"`
	Workload  string   `json:"workload"`
	Objective string   `json:"objective"`
	Maximize  bool     `json:"maximize,omitempty"`
	Budget    int      `json:"budget"`
	Seed      uint64   `json:"seed"`
	Quick     bool     `json:"quick,omitempty"`
	Sites     []string `json:"sites"`
	// Windows is the searched window set; "" is the workload default.
	Windows    []string    `json:"windows"`
	Probe      *Probe      `json:"probe,omitempty"`
	Iterations []Iteration `json:"iterations"`
	Evals      int         `json:"evals"`
	CacheHits  int         `json:"cache_hits"`
	// Converged reports that the climb reached a local optimum with the
	// restart budget spent, rather than running out of evaluations.
	Converged bool   `json:"converged"`
	Winner    Winner `json:"winner"`
}

// JSON renders the trajectory as indented, newline-terminated JSON.
func (t *Trajectory) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeTrajectory parses a trajectory artifact strictly.
func DecodeTrajectory(data []byte) (*Trajectory, error) {
	var t Trajectory
	if err := strictUnmarshal(data, &t); err != nil {
		return nil, err
	}
	return &t, nil
}

// Result is what one search run produces.
type Result struct {
	Trajectory *Trajectory
	// WinnerSpec is the decoded form of Trajectory.Winner.Spec.
	WinnerSpec scenario.Spec
}

// Progress events, one NDJSON line each, written to the search's
// progress stream as it runs. Like the trajectory they carry no
// wall-clock state, so a re-run with the same inputs reproduces the
// stream byte for byte.
type evStart struct {
	Event     string   `json:"event"` // "start"
	Workload  string   `json:"workload"`
	Objective string   `json:"objective"`
	Maximize  bool     `json:"maximize,omitempty"`
	Budget    int      `json:"budget"`
	Seed      uint64   `json:"seed"`
	Quick     bool     `json:"quick,omitempty"`
	Sites     []string `json:"sites"`
	Windows   []string `json:"windows"`
}

type evProbe struct {
	Event    string               `json:"event"` // "probe"
	SeedOp   string               `json:"seed_op"`
	Rule     string               `json:"rule"`
	WriteAmp float64              `json:"write_amp"`
	Totals   telemetry.LineTotals `json:"totals"`
}

type evEval struct {
	Event     string  `json:"event"` // "eval"
	Iter      int     `json:"iter"`
	Source    string  `json:"source"`
	Plan      Plan    `json:"plan"`
	Objective float64 `json:"objective"`
	Best      bool    `json:"best,omitempty"`
}

type evMove struct {
	Event  string `json:"event"` // "move"
	Iter   int    `json:"iter"`
	Source string `json:"source"`
}

type evDone struct {
	Event     string  `json:"event"` // "done"
	Evals     int     `json:"evals"`
	CacheHits int     `json:"cache_hits"`
	Converged bool    `json:"converged"`
	Winner    int     `json:"winner"`
	Plan      Plan    `json:"plan"`
	Objective float64 `json:"objective"`
}
