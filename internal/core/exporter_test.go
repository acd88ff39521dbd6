package core

import (
	"reflect"
	"strings"
	"testing"

	"xeonomp/internal/config"
	"xeonomp/internal/counters"
	"xeonomp/internal/golden"
)

func fabricatedArtifacts(t *testing.T) []*golden.Artifact {
	t.Helper()
	s := fabricatedStudy()
	opt := DefaultOptions()
	opt.Scale = 0.5
	opt.Seed = 3
	s.opt = opt
	arts, err := s.Artifacts()
	if err != nil {
		t.Fatal(err)
	}
	return arts
}

func artifactByName(t *testing.T, arts []*golden.Artifact, name string) *golden.Artifact {
	t.Helper()
	for _, a := range arts {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no artifact %q in %d artifacts", name, len(arts))
	return nil
}

func metricValue(t *testing.T, a *golden.Artifact, id string) float64 {
	t.Helper()
	for _, m := range a.Metrics {
		if m.ID == id {
			return m.Value
		}
	}
	t.Fatalf("%s: no metric %q", a.Name, id)
	return 0
}

// The exporter mirrors the renderer: the same fabricated study that draws
// 8.000 in the Figure-3 table exports speedup 8 under the same cell name,
// stamped with the options it ran under.
func TestSingleStudyArtifactsMatchRenderer(t *testing.T) {
	arts := fabricatedArtifacts(t)
	if len(arts) != 4 {
		t.Fatalf("%d artifacts, want 4", len(arts))
	}
	fig3 := artifactByName(t, arts, "figure3")
	if v := metricValue(t, fig3, "XX/HT on -8-2/speedup"); v != 8 {
		t.Fatalf("speedup = %v, want 8", v)
	}
	if fig3.Scale != 0.5 || fig3.Seed != 3 {
		t.Fatalf("provenance = scale %v seed %d", fig3.Scale, fig3.Seed)
	}
	t2 := artifactByName(t, arts, "table2")
	if v := metricValue(t, t2, "CMT-based SMP/avg_speedup"); v != 8 {
		t.Fatalf("table2 avg = %v, want 8", v)
	}
	fig2 := artifactByName(t, arts, "figure2")
	if v := metricValue(t, fig2, "XX/HT on -8-2/dtlb_normalized"); v != 8 {
		t.Fatalf("dtlb_normalized = %v, want 8", v)
	}
	// 9 panels x 2 benchmarks x 8 configurations.
	if len(fig2.Metrics) != 9*2*8 {
		t.Fatalf("figure2 has %d metrics, want %d", len(fig2.Metrics), 9*2*8)
	}
}

// TestFigure2ReadsEveryMetric holds the golden schema to counters.Metrics:
// changing any one field in every multithreaded cell must change the
// figure2 artifact, so a metric that no panel reads cannot be added
// silently. The wire codec is held to every field by
// TestCellResponseBytesMatchEncoder.
func TestFigure2ReadsEveryMetric(t *testing.T) {
	figure2 := func(s *SingleStudy) []golden.Metric {
		arts, err := s.Artifacts()
		if err != nil {
			t.Fatal(err)
		}
		return artifactByName(t, arts, "figure2").Metrics
	}
	base := figure2(fabricatedStudy())
	fields := reflect.TypeOf(counters.Metrics{})
	for i := 0; i < fields.NumField(); i++ {
		s := fabricatedStudy()
		for _, cfg := range s.Configs {
			if cfg.Arch == config.Serial {
				continue
			}
			for _, bn := range s.Benchmarks {
				f := reflect.ValueOf(&s.Results[CellKey{bn, cfg.Name}].Programs[0].Metrics).Elem().Field(i)
				if f.Kind() != reflect.Float64 {
					t.Fatalf("counters.Metrics.%s is %s; teach this test to change it", fields.Field(i).Name, f.Kind())
				}
				f.SetFloat(f.Float() + 1)
			}
		}
		if reflect.DeepEqual(figure2(s), base) {
			t.Errorf("changing counters.Metrics.%s leaves figure2 unchanged: no panel reads it", fields.Field(i).Name)
		}
	}
}

// Raw counters are exported with the exact band: a single-count change in
// one cell must fail the check, naming the cell.
func TestCountersArtifactIsExact(t *testing.T) {
	arts := fabricatedArtifacts(t)
	raw := artifactByName(t, arts, "single-counters")
	if raw.DefaultTol != golden.Exact() {
		t.Fatalf("counters tolerance = %v, want exact", raw.DefaultTol)
	}
	live := fabricatedArtifacts(t)
	lraw := artifactByName(t, live, "single-counters")
	for i := range lraw.Metrics {
		if lraw.Metrics[i].ID == "YY/Serial/l2_miss" {
			lraw.Metrics[i].Value++
		}
	}
	rep, err := golden.Compare(raw, lraw)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("single-count perturbation passed the exact band")
	}
	if !strings.Contains(rep.String(), "YY/Serial/l2_miss") {
		t.Fatalf("drift report does not name the cell:\n%s", rep)
	}
}

// Serialize → reload → compare is a fixed point for a study export.
func TestStudyArtifactsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, a := range fabricatedArtifacts(t) {
		if err := golden.Write(dir, a); err != nil {
			t.Fatal(err)
		}
	}
	stored, err := golden.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	live := fabricatedArtifacts(t)
	for _, g := range stored {
		rep, err := golden.Compare(g, artifactByName(t, live, g.Name))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("round trip drifted:\n%s", rep)
		}
	}
}

// A deliberate change to a derived-metric formula — here simulated by
// scaling a speedup the way a broken Speedup() would — fails against the
// stored artifact with a named cell.
func TestPerturbedFormulaFailsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, a := range fabricatedArtifacts(t) {
		if err := golden.Write(dir, a); err != nil {
			t.Fatal(err)
		}
	}
	stored, err := golden.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	live := fabricatedArtifacts(t)
	fig3 := artifactByName(t, live, "figure3")
	for i := range fig3.Metrics {
		fig3.Metrics[i].Value *= 1.02 // 2% shift, far outside rel 1e-6
	}
	var g *golden.Artifact
	for _, a := range stored {
		if a.Name == "figure3" {
			g = a
		}
	}
	rep, err := golden.Compare(g, fig3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || len(rep.Drifts) != len(g.Metrics) {
		t.Fatalf("perturbed formula: %d drifts of %d metrics", len(rep.Drifts), len(g.Metrics))
	}
	if !strings.Contains(rep.String(), "/speedup") {
		t.Fatalf("no cell named:\n%s", rep)
	}
}
