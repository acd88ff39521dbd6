package main

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"testing"

	"xeonomp/internal/api"
	"xeonomp/internal/core"
	"xeonomp/internal/golden"
	"xeonomp/internal/lmbench"
)

// tinyScale shrinks every cell so each workload runs in about a second.
const tinyScale = 0.002

// writeTinyGoldens writes the golden set study-cold checks against —
// LMbench, single and pair at seed 1 — generated at tinyScale, the way
// `xeonchar -update-golden` writes testdata/golden.
func writeTinyGoldens(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	ctx := context.Background()
	lm, _, err := measureLMbench(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	arts := []*golden.Artifact{lm.Artifact(lmbench.GoldenName, golden.Relative(1e-9)), lmbench.PaperTargets()}
	opt, err := core.NewOptions(core.WithScale(tinyScale), core.WithSeed(1), core.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	studies, _, err := runStudies(ctx, nil, []string{"single", "pair"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range append(arts, studies...) {
		if err := golden.Write(dir, a); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func tinyConfig(t *testing.T, workload, goldenDir string, trace bool) runConfig {
	return runConfig{
		workload:    workload,
		seed:        3,
		seconds:     0.2,
		trace:       trace,
		work:        t.TempDir(),
		goldenDir:   goldenDir,
		goldenScale: tinyScale,
		scale:       tinyScale,
		setups:      1,
		minSamples:  2,
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestTinyRunsEmitEveryMetric runs every workload in BENCHMARK.json at a
// tiny size, untraced and traced, and requires each run to verify its
// outputs and to report exactly the metrics BENCHMARK.json lists, each
// with its unit.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	f := loadBenchmarkFile(t)
	goldenDir := writeTinyGoldens(t)
	for _, w := range f.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which perfbench does not run", w.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			want := f.EndToEnd
			if traced {
				want = f.PerLayer
			}
			res, err := measure(context.Background(), tinyConfig(t, w.Name, goldenDir, traced), t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if !traced {
				for _, name := range []string{"setup_s", "cells_per_s", "latency_p50_ms", "latency_p90_ms", "rss_peak_mb", "lmbench_err_pct"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.Name, name, res.Metrics[name].Value)
					}
				}
				if v := res.Metrics["ok_frac"].Value; v != 1 {
					t.Errorf("%s: ok_frac = %v, want 1", w.Name, v)
				}
			}
		}
	}
}

// TestPerturbedGoldenLowersOkFrac moves one golden value out of its
// tolerance band; study-cold must notice.
func TestPerturbedGoldenLowersOkFrac(t *testing.T) {
	dir := writeTinyGoldens(t)
	a, err := golden.Load(filepath.Join(dir, golden.Filename("figure3")))
	if err != nil {
		t.Fatal(err)
	}
	a.Metrics[0].Value *= 1.01
	if err := golden.Write(dir, a); err != nil {
		t.Fatal(err)
	}
	res, err := measure(context.Background(), tinyConfig(t, "study-cold", dir, false), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Metrics["ok_frac"].Value; v >= 1 || res.Correct {
		t.Errorf("perturbed golden: ok_frac = %v, correct = %v; want ok_frac < 1 and not correct", v, res.Correct)
	}
}

// TestFlippedArtifactByteLowersOkFrac flips one byte of one artifact the
// warm workloads produce; ok_frac must drop below 1.
func TestFlippedArtifactByteLowersOkFrac(t *testing.T) {
	for _, w := range []string{"rerun-warm", "fleet-rehome"} {
		cfg := tinyConfig(t, w, "", false)
		cfg.mutate = func(name string, b []byte) []byte {
			if name == "figure3" {
				b[len(b)/2] ^= 1
			}
			return b
		}
		res, err := measure(context.Background(), cfg, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if v := res.Metrics["ok_frac"].Value; v >= 1 || res.Correct {
			t.Errorf("%s flipped byte: ok_frac = %v, correct = %v; want ok_frac < 1 and not correct", w, v, res.Correct)
		}
	}
}

// TestFailedFleetStudyCountsItsArtifacts submits a study to a server
// that is gone: the study's artifacts must still count as checked, so
// ok_frac drops below 1 when a study fails before it is verified.
func TestFailedFleetStudyCountsItsArtifacts(t *testing.T) {
	cfg := tinyConfig(t, "fleet-rehome", "", false)
	ctx := context.Background()
	opt, err := core.NewOptions(core.WithScale(cfg.scale), core.WithSeed(cfg.simSeed()), core.WithWorkers(2),
		core.WithBackend(core.Local()))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newReference(ctx, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gone := "http://" + ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	_, ok, checked, err := fleetStudy(ctx, cfg, nil, api.NewClient(gone), ref, "single")
	if err == nil {
		t.Fatal("study against a closed server succeeded")
	}
	if want := len(ref.byStudy["single"]); want == 0 || checked != want || ok != 0 {
		t.Errorf("failed study: ok = %d, checked = %d; want 0 of %d", ok, checked, want)
	}
}
