// Command perfbench is the repository benchmark: three end-to-end
// workloads driven through the public APIs of core, runcache, journal,
// golden, lmbench, api, server and shard, with a per-layer ledger from
// a separate traced run. See README.md for what each workload measures
// and how to read the output; run.sh builds and runs it from the root of
// a checkout:
//
//	bash _perfbench/run.sh --workload study-cold --seed 3 --seconds 25 --trace 0
//
// The last line of standard output is the result object; the simulated-
// statistics ledger goes to standard error, and a traced run writes its
// Chrome trace and self-time table under .bench_build/perfbench.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// workloads maps each workload name to its runner and its set-up
// repetitions (setup_s is their median).
var workloads = map[string]struct {
	run    func(context.Context, runConfig) (*outcome, error)
	setups int
}{
	"study-cold":   {runStudyCold, 7},
	"rerun-warm":   {runRerunWarm, 3},
	"fleet-rehome": {runFleetRehome, 3},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "study-cold, rerun-warm or fleet-rehome")
		seed     = flag.Uint64("seed", 1, "workload seed: simulation seed of every non-golden cell and the request order")
		seconds  = flag.Float64("seconds", 10, "how long the timed phase runs, at least one pass")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	)
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {study-cold|rerun-warm|fleet-rehome} --seed N --seconds S --trace {0|1}\n")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out := filepath.Join(root, ".bench_build", "perfbench")
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(out, "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	cfg := runConfig{
		workload:    *workload,
		seed:        *seed,
		seconds:     *seconds,
		trace:       *traced == 1,
		work:        work,
		goldenDir:   filepath.Join(root, "testdata", "golden"),
		goldenScale: 0.1,
		scale:       0.01,
		setups:      w.setups,
		minSamples:  100,
	}
	if cfg.trace {
		cfg.setups = 1
	}
	res, err := measure(context.Background(), cfg, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// measure runs one workload and reduces it to the result object,
// printing the ledger to standard error and, for a traced run, writing
// the trace and self-time table under out.
func measure(ctx context.Context, cfg runConfig, out string) (*result, error) {
	o, err := workloads[cfg.workload].run(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if err := printLedger(cfg, o); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "host: reference kernel %.3f ms at start, %.3f ms at end\n", o.hostRefMs[0], o.hostRefMs[1])
	res := &result{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	defs, values := endToEnd, o.endToEnd()
	if cfg.trace {
		defs, values = perLayer, o.layer
		if err := writeTrace(cfg, o.rec, out); err != nil {
			return nil, err
		}
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// printLedger writes the run's simulated-statistics ledger as one JSON
// line on standard error. The counts are exact: runs of the same code
// must print the same golden ledger on every seed and the same seeded
// ledger for the same seed (steady.py fails otherwise).
func printLedger(cfg runConfig, o *outcome) error {
	type line struct {
		Workload      string             `json:"workload"`
		Seed          uint64             `json:"seed"`
		LMbenchErrPct float64            `json:"lmbench_err_pct"`
		Golden        map[string]float64 `json:"golden,omitempty"`
		Seeded        map[string]float64 `json:"seeded"`
	}
	l := line{Workload: cfg.workload, Seed: cfg.seed, LMbenchErrPct: o.lmbenchErrPct, Seeded: o.seeded.metrics()}
	if o.golden.Cells > 0 {
		l.Golden = o.golden.metrics()
	}
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ledger: %s\n", b)
	return nil
}

// writeTrace writes the traced run's Chrome trace_event JSON and its
// self-time table, and prints the table to standard error.
func writeTrace(cfg runConfig, rec *recorder, out string) error {
	base := fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed)
	f, err := os.Create(filepath.Join(out, "trace-"+base+".json"))
	if err != nil {
		return err
	}
	if err := rec.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	t, err := os.Create(filepath.Join(out, "selftime-"+base+".txt"))
	if err != nil {
		return err
	}
	rec.writeSelfTable(t, base)
	if err := t.Close(); err != nil {
		return err
	}
	rec.writeSelfTable(os.Stderr, base)
	return nil
}
