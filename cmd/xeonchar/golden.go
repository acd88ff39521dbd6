package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"xeonomp/internal/core"
	"xeonomp/internal/golden"
	"xeonomp/internal/lmbench"
	"xeonomp/internal/machine"
)

// goldenDir is where -update-golden writes and where CI checks; the
// checked-in artifacts are generated at -scale 0.1 (see Makefile
// update-golden) so the gate runs in CI time, not paper time.
const goldenDir = "testdata/golden"

// maxDriftLines caps the per-artifact drift listing: a perturbed formula
// moves hundreds of cells, and the first screenful names the failure.
const maxDriftLines = 25

// collectArtifacts runs every study the golden set covers — the Section-3
// LMbench calibration plus every registered study (core.StudyNames) — and
// returns their artifacts. Caching and progress flow through opt exactly
// as for figure regeneration.
func collectArtifacts(ctx context.Context, opt core.Options) ([]*golden.Artifact, error) {
	m, err := machine.New(machine.PaxvilleSMP())
	if err != nil {
		return nil, err
	}
	r, err := lmbench.Measure(m)
	if err != nil {
		return nil, err
	}
	arts := []*golden.Artifact{
		// The same measurement is exported twice: once to diff against a
		// prior measurement (tight), once against the paper's targets
		// (wide); the golden file supplies the band either way.
		r.Artifact(lmbench.GoldenName, golden.Relative(1e-9)),
		r.Artifact(lmbench.PaperGoldenName, golden.Relative(0.05)),
	}

	for _, name := range core.StudyNames() {
		st, err := core.NewStudy(name)
		if err != nil {
			return nil, err
		}
		if err := runStudy(ctx, name, st, opt); err != nil {
			return nil, err
		}
		as, err := st.Artifacts()
		if err != nil {
			return nil, err
		}
		arts = append(arts, as...)
	}
	return arts, nil
}

// pinnedArtifacts are written verbatim on export/update instead of from a
// measurement: their golden values are paper constants, not prior runs.
func pinnedArtifacts() []*golden.Artifact {
	return []*golden.Artifact{lmbench.PaperTargets()}
}

// runGolden is the -export-json / -check / -update-golden entry point.
func runGolden(ctx context.Context, opt core.Options, exportDir, checkDir string, update bool) error {
	var stored []*golden.Artifact
	if checkDir != "" {
		// Load and provenance-check the golden set before spending study
		// time: a forgotten -scale should fail in milliseconds, not after
		// a full-scale regeneration.
		var err error
		stored, err = golden.LoadDir(checkDir)
		if err != nil {
			return fmt.Errorf("loading golden artifacts: %w (run -update-golden to create them)", err)
		}
		for _, g := range stored {
			if g.Scale != 0 && g.Scale != opt.Scale {
				return fmt.Errorf("golden artifact %s was generated at -scale %g; rerun with -scale %g or regenerate with -update-golden",
					g.Name, g.Scale, g.Scale)
			}
			if g.Seed != 0 && g.Seed != opt.Seed {
				return fmt.Errorf("golden artifact %s was generated at -seed %d; rerun with -seed %d or regenerate with -update-golden",
					g.Name, g.Seed, g.Seed)
			}
		}
	}
	live, err := collectArtifacts(ctx, opt)
	if err != nil {
		return err
	}
	var dirs []string
	if exportDir != "" {
		dirs = append(dirs, exportDir)
	}
	if update {
		dirs = append(dirs, goldenDir)
	}
	for _, dir := range dirs {
		if err := writeArtifacts(dir, live); err != nil {
			return err
		}
	}
	if checkDir != "" {
		return checkArtifacts(checkDir, stored, live)
	}
	return nil
}

// writeArtifacts stores the live set (with pinned artifacts substituted
// from their constants) canonically under dir.
func writeArtifacts(dir string, live []*golden.Artifact) error {
	pinned := map[string]*golden.Artifact{}
	for _, p := range pinnedArtifacts() {
		pinned[p.Name] = p
	}
	n := 0
	for _, a := range live {
		if p, ok := pinned[a.Name]; ok {
			a = p
		}
		if err := golden.Write(dir, a); err != nil {
			return err
		}
		n++
	}
	fmt.Fprintf(os.Stderr, "wrote %d golden artifact(s) to %s\n", n, dir)
	return nil
}

// checkArtifacts compares the live set against every artifact stored in
// dir, prints a drift report per artifact, and returns an error naming
// the failures (the CI gate's exit code).
func checkArtifacts(dir string, stored, live []*golden.Artifact) error {
	liveByName := map[string]*golden.Artifact{}
	for _, a := range live {
		liveByName[a.Name] = a
	}
	var failed []string
	for _, g := range stored {
		l, ok := liveByName[g.Name]
		if !ok {
			failed = append(failed, g.Name)
			fmt.Printf("%s: FAIL — stored in %s but no live study produces it; stale artifact?\n",
				g.Name, dir)
			continue
		}
		delete(liveByName, g.Name)
		rep, err := golden.Compare(g, l)
		if err != nil {
			return err
		}
		printReport(rep)
		if !rep.OK() {
			failed = append(failed, g.Name)
		}
	}
	for _, a := range live {
		if _, ok := liveByName[a.Name]; ok {
			failed = append(failed, a.Name)
			fmt.Printf("%s: FAIL — produced by the live run but missing from %s; run -update-golden and commit %s\n",
				a.Name, dir, filepath.Join(dir, golden.Filename(a.Name)))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("golden check against %s failed for %d artifact(s): %v", dir, len(failed), failed)
	}
	fmt.Printf("golden check against %s: all %d artifact(s) within tolerance\n", dir, len(stored))
	return nil
}

// printReport prints a passing report as one line and a failing one as
// the drift table, truncated to the first maxDriftLines cells.
func printReport(r *golden.Report) {
	if r.OK() {
		fmt.Println(r.String())
		return
	}
	extra := 0
	show := *r
	if len(show.Drifts) > maxDriftLines {
		extra = len(show.Drifts) - maxDriftLines
		show.Drifts = show.Drifts[:maxDriftLines]
	}
	fmt.Println(show.String())
	if extra > 0 {
		fmt.Printf("  ... and %d more out-of-tolerance metric(s)\n", extra)
	}
}
