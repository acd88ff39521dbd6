package core

import (
	"context"
	"fmt"
	"slices"

	"xeonomp/internal/cache"
	"xeonomp/internal/config"
	"xeonomp/internal/machine"
	"xeonomp/internal/obs"
	"xeonomp/internal/report"
	"xeonomp/internal/sched"
	"xeonomp/internal/units"
)

// Ablation is one of the DESIGN.md design-choice ablations: a small grid
// of cells run on the base Options and again on a variant with one
// machine parameter or the placement policy changed, reduced to a table
// of speedups side by side. It quantifies how much each mechanism
// contributes to the paper's observations.
type Ablation struct {
	Name   string
	Detail string
	// vary turns a copy of the base Options into the variant.
	vary func(*Options)
	// table runs the cells under base and variant and renders them.
	table func(ctx context.Context, a Ablation, base, variant Options) (*report.Table, error)
}

// Ablations returns every ablation, in the order xeonchar -ablation all
// prints them.
func Ablations() []Ablation {
	return []Ablation{
		{"prefetch", "hardware prefetcher disabled",
			varyMachine(func(c *machine.Config) { c.PrefetchGate = -1 }), machineTable},
		{"bus", "FSB bandwidth halved",
			varyMachine(func(c *machine.Config) { c.FSBBandwidth /= 2 }), machineTable},
		{"l2", "L2 doubled to 2 MiB per core",
			varyMachine(func(c *machine.Config) { c.L2.Size = 2 * units.MiB }), machineTable},
		{"l2-random", "L2 random replacement instead of LRU",
			varyMachine(func(c *machine.Config) { c.L2.Policy = cache.Random }), machineTable},
		{"smt", "SMT buffer partitioning and port contention removed",
			varyMachine(func(c *machine.Config) {
				c.Lat.SMTSharedMLP = 1.0
				c.Lat.SMTClash = 0
			}), machineTable},
		{"policy", "block placement instead of alternating (multi-program pairs)",
			func(o *Options) { o.Policy = sched.Block }, pairTable},
		{"symbiosis", "demand-aware symbiotic placement for a 4-program mix",
			func(o *Options) { o.Policy = sched.Symbiotic }, symbiosisTable},
	}
}

// Run executes the ablation under opt and returns its table.
func (a Ablation) Run(ctx context.Context, opt Options) (*report.Table, error) {
	ctx, sp := obs.StartSpan(ctx, "ablation", "name", a.Name)
	defer sp.End()
	variant := opt
	a.vary(&variant)
	return a.table(ctx, a, opt, variant)
}

// varyMachine mutates a copy of the Options' own platform, so an ablation
// composes with a custom -machine.
func varyMachine(mutate func(*machine.Config)) func(*Options) {
	return func(o *Options) {
		m := o.machineConfig()
		mutate(&m)
		o.Machine = &m
	}
}

// ablationSide is one half of an ablation: the grid's results,
// workload-major, and the serial wall cycles they are measured against.
type ablationSide struct {
	grid   []*RunResult
	serial map[string]int64
}

// runSides runs the grid wls × the named architectures under base and
// under variant. A machine variant (ownSerial) is measured against its own
// serial runs; a placement variant shares the base ones.
func runSides(ctx context.Context, wls []Workload, archs []config.Arch, base, variant Options, ownSerial bool) ([2]ablationSide, error) {
	var sides [2]ablationSide
	var cfgs []config.Configuration
	for _, a := range archs {
		cfg, err := config.ByArch(a)
		if err != nil {
			return sides, err
		}
		cfgs = append(cfgs, cfg)
	}
	serial, err := serialCells(wls)
	if err != nil {
		return sides, err
	}
	grid := gridCells(wls, cfgs)
	for i, opt := range []Options{base, variant} {
		cells := grid
		if i == 0 || ownSerial {
			cells = slices.Concat(serial, grid)
		}
		res, err := RunCells(ctx, cells, opt)
		if err != nil {
			return sides, err
		}
		sides[i] = ablationSide{grid: res[len(cells)-len(grid):], serial: serialBaselines(cells, res)}
	}
	if !ownSerial {
		sides[1].serial = sides[0].serial
	}
	return sides, nil
}

// ablationArchs are the multithreaded configurations the ablations compare.
var ablationArchs = []config.Arch{config.CMT, config.CMPSMP, config.CMTSMP}

// machineTable compares CG, MG and LU speedups on the stock and the varied
// machine, each over its own machine's serial run.
func machineTable(ctx context.Context, a Ablation, base, variant Options) (*report.Table, error) {
	wls, err := workloadsOf([]string{"CG"}, []string{"MG"}, []string{"LU"})
	if err != nil {
		return nil, err
	}
	sides, err := runSides(ctx, wls, ablationArchs, base, variant, true)
	if err != nil {
		return nil, err
	}
	headers := []string{"benchmark"}
	for _, arch := range ablationArchs {
		headers = append(headers, string(arch)+" base", string(arch)+" "+a.Name)
	}
	t := report.NewTable(fmt.Sprintf("Ablation %q — %s (speedup over each run's own serial)", a.Name, a.Detail), headers...)
	for wi, w := range wls {
		row := []any{w.Name()}
		for ci := range ablationArchs {
			for _, s := range sides {
				row = append(row, Speedup(s.serial[w.Name()], s.grid[wi*len(ablationArchs)+ci].WallCycles))
			}
		}
		t.AddF(row...)
	}
	return t, nil
}

// pairTable compares the CG/FT pair's per-program speedups under the base
// and the variant placement.
func pairTable(ctx context.Context, a Ablation, base, variant Options) (*report.Table, error) {
	wls, err := workloadsOf([]string{"CG", "FT"})
	if err != nil {
		return nil, err
	}
	sides, err := runSides(ctx, wls, ablationArchs, base, variant, false)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(fmt.Sprintf("Ablation %q — %s", a.Name, a.Detail),
		"config", "program", base.Policy.String()+" speedup", variant.Policy.String()+" speedup")
	for ci, r := range sides[0].grid {
		for pi, p := range r.Programs {
			t.AddF(r.Config.Name, p.Benchmark, sides[0].programSpeedup(ci, pi), sides[1].programSpeedup(ci, pi))
		}
	}
	return t, nil
}

// symbiosisTable compares a four-program mix (two memory-heavy, two
// compute-light) on the full HT machine under the base and the variant
// placement — the paper's future-work scheduler direction.
func symbiosisTable(ctx context.Context, a Ablation, base, variant Options) (*report.Table, error) {
	wls, err := workloadsOf([]string{"MG", "EP", "SP", "EP"})
	if err != nil {
		return nil, err
	}
	sides, err := runSides(ctx, wls, []config.Arch{config.CMTSMP}, base, variant, false)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(fmt.Sprintf("Ablation %q — %s", a.Name, a.Detail),
		"program", base.Policy.String()+" speedup", variant.Policy.String()+" speedup")
	for pi, p := range sides[0].grid[0].Programs {
		t.AddF(fmt.Sprintf("%s[%d]", p.Benchmark, pi), sides[0].programSpeedup(0, pi), sides[1].programSpeedup(0, pi))
	}
	return t, nil
}

// programSpeedup is program pi's speedup in grid cell ci over its serial
// baseline.
func (s ablationSide) programSpeedup(ci, pi int) float64 {
	p := s.grid[ci].Programs[pi]
	return Speedup(s.serial[p.Benchmark], p.Cycles)
}
