package report

import (
	"strings"
	"testing"

	"xeonomp/internal/stats"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("My Title", "name", "value")
	tb.Add("alpha", "1")
	tb.AddF("beta", 2.5)
	tb.AddF("gamma", 42, int64(7))
	out := tb.String()
	for _, want := range []string{"My Title", "name", "value", "alpha", "2.500", "42"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	// Header separator present.
	if !strings.Contains(out, "----") {
		t.Error("missing separator line")
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.Add("short", "x")
	tb.Add("muchlongercell", "y")
	lines := strings.Split(strings.TrimSpace(tb.String()), "\n")
	// All data lines must have the same column start for "x"/"y".
	xi := strings.Index(lines[2], "x")
	yi := strings.Index(lines[3], "y")
	if xi != yi {
		t.Fatalf("columns misaligned: %d vs %d\n%s", xi, yi, tb.String())
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("ignored", "a", "b")
	tb.Add("1", "2")
	tb.Add("3", "4")
	want := "a,b\n1,2\n3,4\n"
	if got := tb.CSV(); got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestAddFTypes(t *testing.T) {
	tb := NewTable("", "c")
	tb.AddF(struct{ X int }{1}) // fallback formatting must not panic
	if len(tb.Rows) != 1 {
		t.Fatal("row not added")
	}
}

func TestBoxPlots(t *testing.T) {
	boxes := []stats.BoxPlot{
		{Min: 1, Q1: 1.5, Median: 2, Q3: 2.5, Max: 3, N: 10},
		{Min: 2, Q1: 2.2, Median: 2.4, Q3: 2.8, Max: 4, N: 10},
	}
	out := BoxPlots("Figure 5", []string{"HT off -4-2", "HT on -8-2"}, boxes, 40)
	for _, want := range []string{"Figure 5", "HT off -4-2", "HT on -8-2", "#", "="} {
		if !strings.Contains(out, want) {
			t.Errorf("box plot missing %q:\n%s", want, out)
		}
	}
	// Five-number summary shown.
	if !strings.Contains(out, "1.00/1.50/2.00/2.50/3.00") {
		t.Errorf("summary numbers missing:\n%s", out)
	}
}

func TestBoxPlotsDegenerate(t *testing.T) {
	// A single constant sample must not divide by zero.
	boxes := []stats.BoxPlot{{Min: 2, Q1: 2, Median: 2, Q3: 2, Max: 2, N: 1}}
	out := BoxPlots("", []string{"x"}, boxes, 30)
	if !strings.Contains(out, "#") {
		t.Fatalf("degenerate box not rendered:\n%s", out)
	}
}

func TestBoxPlotsPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BoxPlots("", []string{"a"}, nil, 40)
}

func TestBoxPlotsTinyWidthClamped(t *testing.T) {
	boxes := []stats.BoxPlot{{Min: 0, Q1: 1, Median: 2, Q3: 3, Max: 4}}
	out := BoxPlots("", []string{"a"}, boxes, 5) // clamps to a sane width
	if len(out) == 0 {
		t.Fatal("no output")
	}
}
