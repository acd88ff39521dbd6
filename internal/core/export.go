package core

import (
	"encoding/json"
	"io"

	"xeonomp/internal/counters"
)

// exportProgram is the JSON shape of one program's results.
type exportProgram struct {
	Benchmark string           `json:"benchmark"`
	Threads   int              `json:"threads"`
	Cycles    int64            `json:"cycles"`
	Counters  counters.Set     `json:"counters"`
	Metrics   counters.Metrics `json:"metrics"`
}

// exportRun is the JSON shape of one run.
type exportRun struct {
	Config     string          `json:"config"`
	Arch       string          `json:"architecture"`
	WallCycles int64           `json:"wall_cycles"`
	Programs   []exportProgram `json:"programs"`
}

func exportOf(r *RunResult) exportRun {
	out := exportRun{
		Config:     r.Config.Name,
		Arch:       string(r.Config.Arch),
		WallCycles: r.WallCycles,
	}
	for _, p := range r.Programs {
		out.Programs = append(out.Programs, exportProgram{
			Benchmark: p.Benchmark,
			Threads:   p.Threads,
			Cycles:    p.Cycles,
			Counters:  p.Counters,
			Metrics:   p.Metrics,
		})
	}
	return out
}

// WriteJSON serializes the run result (configuration, wall clock, and per
// program the counters and derived metrics) as indented JSON.
func (r *RunResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(exportOf(r))
}

// WriteJSON serializes the whole single-program study, keyed by benchmark
// and configuration, including serial baselines.
func (s *SingleStudy) WriteJSON(w io.Writer) error {
	type study struct {
		Benchmarks []string             `json:"benchmarks"`
		Configs    []string             `json:"configurations"`
		Baselines  map[string]int64     `json:"serial_baselines"`
		Runs       map[string]exportRun `json:"runs"` // "BENCH|CONFIG"
	}
	out := study{
		Benchmarks: s.Benchmarks,
		Baselines:  s.Baselines,
		Runs:       map[string]exportRun{},
	}
	for _, c := range s.Configs {
		out.Configs = append(out.Configs, c.Name)
	}
	for key, r := range s.Results {
		out.Runs[key.Benchmark+"|"+key.Config] = exportOf(r)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
