package core

import (
	"bytes"
	"context"
	"io"
	"testing"

	"xeonomp/internal/machine"
	"xeonomp/internal/report"
	"xeonomp/internal/runcache"
)

// serializedStudy runs the named study at reduced scale on the given
// worker count, checks that Run sent every listed cell exactly once and
// nothing else, and returns every byte the study can emit: the canonical
// golden artifacts, the full JSON export where the study has one, and the
// text and CSV of every table it renders. This is the guard against
// nondeterministic flows into outputs: a wall-clock value, an unseeded
// random draw or map-iteration order that reaches an artifact or a table
// by any path, through any number of helpers, fields or packages, makes
// two in-process runs differ. The taint analyzer (internal/analysis) only
// checks the local rules: where the clock and the environment may be read
// at all.
func serializedStudy(t *testing.T, name string, workers int) []byte {
	t.Helper()
	s, err := NewStudy(name)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := s.Cells()
	if err != nil {
		t.Fatal(err)
	}
	counter := &countingBackend{}
	opt := quickOptions()
	opt.Seed = 7
	opt.Workers = workers
	opt.Backend = counter
	if err := s.Run(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		key := c.Workload.Name() + "|" + c.Config.Name
		if n := counter.cells[key]; n != 1 {
			t.Errorf("%s study sent cell %s %d times, want once", name, key, n)
		}
		delete(counter.cells, key)
	}
	for key := range counter.cells {
		t.Errorf("%s study sent cell %s, which Cells does not list", name, key)
	}
	arts, err := s.Artifacts()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, a := range arts {
		b, err := a.MarshalCanonical()
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	if j, ok := s.(interface{ WriteJSON(io.Writer) error }); ok {
		if err := j.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	}
	tables, plot := renderedTables(t, s)
	for _, tb := range tables {
		buf.WriteString(tb.String())
		buf.WriteString(tb.CSV())
	}
	buf.WriteString(plot)
	return buf.Bytes()
}

// renderedTables returns the tables a study renders for xeonchar, and its
// plot for the cross study.
func renderedTables(t *testing.T, s Study) ([]*report.Table, string) {
	t.Helper()
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	switch s := s.(type) {
	case *SingleStudy:
		fig2, err := s.Figure2Tables()
		check(err)
		fig3, err := s.Figure3Table()
		check(err)
		table2, err := s.Table2Report()
		check(err)
		return append(fig2, fig3, table2), ""
	case *PairStudy:
		fig4, err := s.Figure4Tables()
		check(err)
		return fig4, ""
	case *CrossStudy:
		return nil, s.Figure5Plot()
	}
	t.Fatalf("no rendered tables for study %T", s)
	return nil, ""
}

// TestStudySerializationIsBitStable runs every registered study twice —
// once sequentially, once on four workers — and demands byte-identical
// output: golden JSON, JSON export and rendered tables.
// TestStudiesWorkerInvariant already pins the in-memory numbers of the
// single study; this pins the serialized bytes, which are what the golden
// regression gate diffs and what xeonchar prints.
func TestStudySerializationIsBitStable(t *testing.T) {
	for _, name := range StudyNames() {
		t.Run(name, func(t *testing.T) {
			if name == "cross" && testing.Short() {
				t.Skip("153-cell cross study twice")
			}
			first := serializedStudy(t, name, 1)
			second := serializedStudy(t, name, 4)
			if !bytes.Equal(first, second) {
				limit := 400
				a, b := string(first), string(second)
				for i := 0; i < len(a) && i < len(b); i++ {
					if a[i] != b[i] {
						lo := max(0, i-100)
						t.Fatalf("study serialization diverged at byte %d:\nrun1: ...%.*s\nrun2: ...%.*s",
							i, limit, a[lo:], limit, b[lo:])
					}
				}
				t.Fatalf("study serializations differ in length: %d vs %d bytes", len(first), len(second))
			}
		})
	}
}

// TestStudyCells pins each study's cell count: the budget the experiment
// server admits a request against, and the sums behind the benchmark's
// 122 (single, pair, single) and 227 (all three) cells. That Run sends
// exactly the listed cells is checked by serializedStudy.
func TestStudyCells(t *testing.T) {
	want := map[string]int{"single": 48, "pair": 26, "cross": 153}
	for _, name := range StudyNames() {
		s, err := NewStudy(name)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := s.Cells()
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != want[name] {
			t.Errorf("study %s lists %d cells, want %d", name, len(cells), want[name])
		}
	}
	if _, err := NewStudy("bogus"); err == nil {
		t.Error("NewStudy accepted an unknown name")
	}
}

// TestAblationsWorkerInvariant renders every ablation sequentially and on
// four workers and demands identical tables. Each worker count has
// its own run cache, shared across ablations the way xeonchar -ablation
// all shares one.
func TestAblationsWorkerInvariant(t *testing.T) {
	opts := map[int]Options{}
	for _, workers := range []int{1, 4} {
		cache, err := runcache.New(0, "")
		if err != nil {
			t.Fatal(err)
		}
		opt := quickOptions()
		opt.Scale = 0.01
		opt.Workers = workers
		opt.Cache = cache
		opts[workers] = opt
	}
	for _, a := range Ablations() {
		t.Run(a.Name, func(t *testing.T) {
			var tables []string
			for _, workers := range []int{1, 4} {
				tb, err := a.Run(context.Background(), opts[workers])
				if err != nil {
					t.Fatal(err)
				}
				tables = append(tables, tb.String())
			}
			if tables[0] != tables[1] {
				t.Errorf("ablation %s differs between 1 and 4 workers:\n%s\n%s", a.Name, tables[0], tables[1])
			}
		})
	}
}

// TestMachineAblationsVaryOwnMachine pins that a machine ablation mutates
// the platform the Options carry, so -machine and -ablation compose.
func TestMachineAblationsVaryOwnMachine(t *testing.T) {
	own := machine.PrestoniaSMP()
	for _, a := range Ablations() {
		if a.Name != "bus" {
			continue
		}
		opt := quickOptions()
		opt.Machine = &own
		variant := opt
		a.vary(&variant)
		if got, want := variant.Machine.FSBBandwidth, own.FSBBandwidth/2; got != want {
			t.Errorf("bus ablation of a custom machine has FSB %g, want %g", got, want)
		}
		if opt.Machine.FSBBandwidth != machine.PrestoniaSMP().FSBBandwidth {
			t.Error("bus ablation mutated the base machine")
		}
		return
	}
	t.Fatal("no bus ablation")
}
