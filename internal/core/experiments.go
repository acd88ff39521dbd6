package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"xeonomp/internal/config"
	"xeonomp/internal/golden"
	"xeonomp/internal/obs"
	"xeonomp/internal/profiles"
	"xeonomp/internal/stats"
)

// Study is the one seam every experiment shares: Cells lists the
// simulations the study needs, Run executes them under opt (storing opt
// for provenance), honoring ctx cancellation between cells, and reduces
// them, and Artifacts serializes the finished study as golden regression
// artifacts stamped with the Options it ran under. NewSingleStudy,
// NewPairStudy and NewCrossStudy build the three studies of the paper.
type Study interface {
	Cells() ([]Cell, error)
	Run(ctx context.Context, opt Options) error
	Artifacts() ([]*golden.Artifact, error)
}

// StudyNames lists the studies NewStudy can build, in paper order.
func StudyNames() []string { return []string{"single", "pair", "cross"} }

// NewStudy builds an empty study by its short name: "single" (Figures
// 2/3, Table 2), "pair" (Figure 4) or "cross" (Figure 5). The experiment
// server and CLI share this registry, so a study name means the same
// cells everywhere.
func NewStudy(name string) (Study, error) {
	switch name {
	case "single":
		return NewSingleStudy(), nil
	case "pair":
		return NewPairStudy(), nil
	case "cross":
		return NewCrossStudy(), nil
	}
	return nil, fmt.Errorf("core: unknown study %q (have %v)", name, StudyNames())
}

// Cell is one simulation of a study or ablation: a workload on a
// configuration. The Options come from the Run that executes it, so one
// cell list serves every scale, seed and backend.
type Cell struct {
	Workload Workload
	Config   config.Configuration
}

// RunCells runs every cell through RunContext on opt.Workers goroutines
// and returns the results in cell order. It announces len(cells) to
// opt.Progress first, so the progress line has its total and an ETA from
// the first cell on.
func RunCells(ctx context.Context, cells []Cell, opt Options) ([]*RunResult, error) {
	opt.Progress.AddTotal(len(cells))
	out := make([]*RunResult, len(cells))
	err := forEachJob(ctx, len(cells), opt.Workers, func(ctx context.Context, i int) error {
		res, err := RunContext(ctx, cells[i].Workload, cells[i].Config, opt)
		out[i] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runStudy lists s's cells and runs them under a "study" trace span: the
// shared first half of every Study.Run, which then reduces the results.
func runStudy(ctx context.Context, name string, s Study, opt Options) ([]Cell, []*RunResult, error) {
	ctx, sp := obs.StartSpan(ctx, "study", "name", name)
	defer sp.End()
	cells, err := s.Cells()
	if err != nil {
		return nil, nil, err
	}
	res, err := RunCells(ctx, cells, opt)
	return cells, res, err
}

// gridCells lists every workload on every configuration, workload-major.
func gridCells(wls []Workload, cfgs []config.Configuration) []Cell {
	cells := make([]Cell, 0, len(wls)*len(cfgs))
	for _, w := range wls {
		for _, cfg := range cfgs {
			cells = append(cells, Cell{w, cfg})
		}
	}
	return cells
}

// serialCells lists the serial baseline cell of each distinct program in
// wls, in first-appearance order: the denominators of every speedup.
func serialCells(wls []Workload) ([]Cell, error) {
	serial, err := config.ByArch(config.Serial)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var cells []Cell
	for _, w := range wls {
		for _, p := range w.Programs {
			if !seen[p.Name] {
				seen[p.Name] = true
				cells = append(cells, Cell{Single(p), serial})
			}
		}
	}
	return cells, nil
}

// serialBaselines collects the wall cycles of the one-program Serial
// cells of a RunCells batch, keyed by benchmark.
func serialBaselines(cells []Cell, res []*RunResult) map[string]int64 {
	out := map[string]int64{}
	for i, c := range cells {
		if c.Config.Arch == config.Serial && len(c.Workload.Programs) == 1 {
			out[c.Workload.Name()] = res[i].WallCycles
		}
	}
	return out
}

// workloadsOf builds one workload per list of benchmark names.
func workloadsOf(mixes ...[]string) ([]Workload, error) {
	out := make([]Workload, 0, len(mixes))
	for _, names := range mixes {
		var w Workload
		for _, n := range names {
			p, err := profiles.ByName(n)
			if err != nil {
				return nil, err
			}
			w.Programs = append(w.Programs, p)
		}
		out = append(out, w)
	}
	return out, nil
}

// forEachJob runs fn over 0..n-1 with the given worker count (<=1 means
// sequential). Workers always drain the job channel — even after a
// failure or context cancellation — so the producer can never deadlock;
// remaining jobs are skipped once any worker has failed or ctx is done,
// and all worker errors (including ctx.Err) are aggregated with
// errors.Join. Every run uses its own Machine, so parallel execution
// cannot change results — TestStudiesWorkerInvariant pins that.
//
// Each worker goroutine gets its own trace lane, so concurrent cells
// render as parallel tracks, and the pool reports its size and busy
// fraction to the core.workers / core.worker_utilization gauges.
func forEachJob(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	obsWorkers.Set(float64(workers))
	wall := obs.StartTimer()
	var busyNs atomic.Int64
	jobs := make(chan int)
	errCh := make(chan error, workers)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			wctx := obs.WithLane(ctx, lane)
			var errs []error
			for i := range jobs {
				if failed.Load() || ctx.Err() != nil {
					continue // keep draining so the producer never blocks
				}
				t := obs.StartTimer()
				err := fn(wctx, i)
				busyNs.Add(t.ElapsedNs())
				if err != nil {
					failed.Store(true)
					errs = append(errs, err)
				}
			}
			errCh <- errors.Join(errs...)
		}(w + 1)
	}
	for i := 0; i < n; i++ {
		//xeonlint:ignore ctxflow workers drain jobs even after a failure (they keep ranging and skip work), so this send cannot block forever
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	close(errCh)
	obsWorkerUtil.Set(wall.Utilization(busyNs.Load(), workers))
	var all []error
	for err := range errCh {
		if err != nil {
			all = append(all, err)
		}
	}
	if err := ctx.Err(); err != nil {
		all = append(all, err)
	}
	return errors.Join(all...)
}

// CellKey addresses one (benchmark, configuration) cell of a study.
type CellKey struct {
	Benchmark string
	Config    string
}

// SingleStudy holds the single-program experiment behind Figure 2 (counter
// metrics), Figure 3 (speedups) and Table 2 (average speedup per
// architecture).
type SingleStudy struct {
	Benchmarks []string
	Configs    []config.Configuration
	Results    map[CellKey]*RunResult
	Baselines  map[string]int64 // serial wall cycles per benchmark
	DTLBSerial map[string]float64

	opt Options // the Options Run executed under; Artifacts stamps from it
}

// NewSingleStudy returns an empty single-program study; Run populates it.
func NewSingleStudy() *SingleStudy { return &SingleStudy{} }

// Cells lists every studied benchmark on every Table-1 configuration; the
// Serial column doubles as the speedup baselines.
func (s *SingleStudy) Cells() ([]Cell, error) {
	var wls []Workload
	for _, p := range profiles.Studied() {
		wls = append(wls, Single(p))
	}
	return gridCells(wls, config.Table1()), nil
}

// Run executes every studied benchmark under every Table-1 configuration,
// stopping between cells when ctx is canceled.
func (s *SingleStudy) Run(ctx context.Context, opt Options) error {
	cells, res, err := runStudy(ctx, "single", s, opt)
	if err != nil {
		return err
	}
	s.opt = opt
	s.Benchmarks = profiles.StudiedNames()
	s.Configs = config.Table1()
	s.Results = map[CellKey]*RunResult{}
	s.Baselines = serialBaselines(cells, res)
	s.DTLBSerial = map[string]float64{}
	for i, c := range cells {
		bn := c.Workload.Name()
		s.Results[CellKey{bn, c.Config.Name}] = res[i]
		if c.Config.Arch == config.Serial {
			s.DTLBSerial[bn] = res[i].Programs[0].Metrics.DTLBMisses
		}
	}
	return nil
}

// Result returns the run for (benchmark, configuration name).
func (s *SingleStudy) Result(bench, cfgName string) (*RunResult, error) {
	r, ok := s.Results[CellKey{bench, cfgName}]
	if !ok {
		return nil, fmt.Errorf("core: no result for %s on %s", bench, cfgName)
	}
	return r, nil
}

// Speedup returns benchmark bench's speedup over serial on cfgName
// (Figure 3).
func (s *SingleStudy) Speedup(bench, cfgName string) (float64, error) {
	r, err := s.Result(bench, cfgName)
	if err != nil {
		return 0, err
	}
	base, ok := s.Baselines[bench]
	if !ok {
		return 0, fmt.Errorf("core: no serial baseline for %s", bench)
	}
	return Speedup(base, r.WallCycles), nil
}

// DTLBNormalized returns the benchmark's DTLB load+store misses on cfgName
// normalized to its serial run (the Figure-2 DTLB panel).
func (s *SingleStudy) DTLBNormalized(bench, cfgName string) (float64, error) {
	r, err := s.Result(bench, cfgName)
	if err != nil {
		return 0, err
	}
	base := s.DTLBSerial[bench]
	return stats.Ratio(r.Programs[0].Metrics.DTLBMisses, base), nil
}

// Table2 returns the average speedup across all studied benchmarks for each
// multithreaded architecture, keyed by architecture, plus the ordered
// architecture list (Table 2 of the paper).
func (s *SingleStudy) Table2() ([]config.Arch, map[config.Arch]float64, error) {
	var archs []config.Arch
	avg := map[config.Arch]float64{}
	for _, cfg := range s.Configs {
		if cfg.Arch == config.Serial {
			continue
		}
		var sp []float64
		for _, bn := range s.Benchmarks {
			v, err := s.Speedup(bn, cfg.Name)
			if err != nil {
				return nil, nil, err
			}
			sp = append(sp, v)
		}
		archs = append(archs, cfg.Arch)
		avg[cfg.Arch] = stats.Mean(sp)
	}
	return archs, avg, nil
}

// PairStudy is the fixed-pair multi-program experiment behind Figure 4:
// CG/FT (complementary), FT/FT and CG/CG (identical pairs).
type PairStudy struct {
	Workloads []Workload
	Configs   []config.Configuration
	// Results[workloadName][cfgName] is the pair run.
	Results   map[string]map[string]*RunResult
	Baselines map[string]int64

	opt Options // the Options Run executed under; Artifacts stamps from it
}

// NewPairStudy returns an empty fixed-pair study; Run populates it.
func NewPairStudy() *PairStudy { return &PairStudy{} }

// Figure4Workloads returns the paper's three multi-program workloads.
func Figure4Workloads() ([]Workload, error) {
	return workloadsOf([]string{"CG", "FT"}, []string{"FT", "FT"}, []string{"CG", "CG"})
}

// Cells lists the serial baseline of each paired benchmark, then every
// Figure-4 workload on every Table-1 configuration.
func (s *PairStudy) Cells() ([]Cell, error) {
	wls, err := Figure4Workloads()
	if err != nil {
		return nil, err
	}
	cells, err := serialCells(wls)
	if err != nil {
		return nil, err
	}
	return append(cells, gridCells(wls, config.Table1())...), nil
}

// Run executes the Figure-4 workloads under every configuration, stopping
// between cells when ctx is canceled.
func (s *PairStudy) Run(ctx context.Context, opt Options) error {
	cells, res, err := runStudy(ctx, "pair", s, opt)
	if err != nil {
		return err
	}
	if s.Workloads, err = Figure4Workloads(); err != nil {
		return err
	}
	s.opt = opt
	s.Configs = config.Table1()
	s.Results = map[string]map[string]*RunResult{}
	s.Baselines = serialBaselines(cells, res)
	for _, w := range s.Workloads {
		s.Results[w.Name()] = map[string]*RunResult{}
	}
	for i, c := range cells {
		if len(c.Workload.Programs) > 1 {
			s.Results[c.Workload.Name()][c.Config.Name] = res[i]
		}
	}
	return nil
}

// ProgramSpeedup returns program pi's speedup over its dedicated serial run
// within workload wl on configuration cfgName.
func (s *PairStudy) ProgramSpeedup(wl Workload, pi int, cfgName string) (float64, error) {
	res, ok := s.Results[wl.Name()][cfgName]
	if !ok {
		return 0, fmt.Errorf("core: no pair result for %s on %s", wl.Name(), cfgName)
	}
	if pi < 0 || pi >= len(res.Programs) {
		return 0, fmt.Errorf("core: program index %d", pi)
	}
	base, ok := s.Baselines[res.Programs[pi].Benchmark]
	if !ok {
		return 0, fmt.Errorf("core: no baseline for %s", res.Programs[pi].Benchmark)
	}
	return Speedup(base, res.Programs[pi].Cycles), nil
}

// CrossStudy is the all-pairs experiment behind Figure 5: every unordered
// pair of studied benchmarks (including identical pairs) on every
// multithreaded configuration, summarized as a box plot of per-program
// speedups per configuration.
type CrossStudy struct {
	Configs []config.Configuration
	// Samples[cfgName] holds one speedup per program instance per pair.
	Samples map[string][]float64
	Boxes   map[string]stats.BoxPlot
	// PairSpeedups[cfgName][pairName] lists the two program speedups.
	PairSpeedups map[string]map[string][]float64

	opt Options // the Options Run executed under; Artifacts stamps from it
}

// NewCrossStudy returns an empty all-pairs study; Run populates it.
func NewCrossStudy() *CrossStudy { return &CrossStudy{} }

// CrossPairs returns the unordered benchmark pairs (with replacement) of
// the studied set, in deterministic order.
func CrossPairs() ([][2]string, error) {
	names := profiles.StudiedNames()
	sort.Strings(names)
	var out [][2]string
	for i := 0; i < len(names); i++ {
		for j := i; j < len(names); j++ {
			out = append(out, [2]string{names[i], names[j]})
		}
	}
	return out, nil
}

// crossWorkloads returns the CrossPairs as two-program workloads.
func crossWorkloads() ([]Workload, error) {
	pairs, err := CrossPairs()
	if err != nil {
		return nil, err
	}
	mixes := make([][]string, 0, len(pairs))
	for _, pr := range pairs {
		mixes = append(mixes, []string{pr[0], pr[1]})
	}
	return workloadsOf(mixes...)
}

// Cells lists the serial baseline of each studied benchmark, then every
// CrossPairs workload on every multithreaded configuration.
func (s *CrossStudy) Cells() ([]Cell, error) {
	wls, err := crossWorkloads()
	if err != nil {
		return nil, err
	}
	cells, err := serialCells(wls)
	if err != nil {
		return nil, err
	}
	return append(cells, gridCells(wls, config.Multithreaded())...), nil
}

// Run executes the full cross-product, stopping between cells when ctx is
// canceled.
func (s *CrossStudy) Run(ctx context.Context, opt Options) error {
	cells, res, err := runStudy(ctx, "cross", s, opt)
	if err != nil {
		return err
	}
	s.opt = opt
	s.Configs = config.Multithreaded()
	s.Samples = map[string][]float64{}
	s.Boxes = map[string]stats.BoxPlot{}
	s.PairSpeedups = map[string]map[string][]float64{}
	for _, cfg := range s.Configs {
		s.PairSpeedups[cfg.Name] = map[string][]float64{}
	}
	baselines := serialBaselines(cells, res)
	for i, c := range cells {
		if len(c.Workload.Programs) == 1 {
			continue
		}
		var sp []float64
		for _, p := range res[i].Programs {
			sp = append(sp, Speedup(baselines[p.Benchmark], p.Cycles))
		}
		s.PairSpeedups[c.Config.Name][c.Workload.Name()] = sp
		// Cells are pair-major in CrossPairs order, so each configuration's
		// samples come out in that deterministic order.
		s.Samples[c.Config.Name] = append(s.Samples[c.Config.Name], sp...)
	}
	for _, cfg := range s.Configs {
		box, err := stats.Box(s.Samples[cfg.Name])
		if err != nil {
			return err
		}
		s.Boxes[cfg.Name] = box
	}
	return nil
}
