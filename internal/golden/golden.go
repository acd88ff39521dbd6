// Package golden is the paper-fidelity regression layer. It serializes
// every quantity the reproduction derives from the paper — the Figure-2
// counter panels, the Figure-3/Table-2 speedups, the Figure-4/5
// multi-programmed results, and the Section-3 LMbench latencies and
// bandwidths — into canonical, diff-stable JSON artifacts, and compares a
// live run against a stored artifact with per-metric tolerance bands:
// exact for deterministic counters, a relative epsilon for derived rates,
// and wide bands where a golden value is a paper target rather than a
// prior measurement. cmd/xeonchar wires it to the CLI (-export-json,
// -check, -update-golden) and .github/workflows/ci.yml turns -check into
// the drift gate that fails a PR for moving a paper number.
package golden

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"xeonomp/internal/jsonfmt"
)

// SchemaVersion is bumped whenever the artifact shape changes
// incompatibly; Compare reports a schema mismatch rather than producing a
// misleading metric-by-metric diff.
const SchemaVersion = 1

// Tolerance is one acceptance band. A live value passes against a golden
// value when |live-golden| <= Abs + Rel*|golden| (the numpy allclose
// shape). The zero value demands an exact match.
type Tolerance struct {
	Abs float64 `json:"abs,omitempty"`
	Rel float64 `json:"rel,omitempty"`
}

// Exact returns the zero tolerance: the live value must equal the golden
// value bit-for-bit. Use it for integer counters and cycle counts, which
// the simulator produces deterministically.
func Exact() Tolerance { return Tolerance{} }

// Relative returns a pure relative tolerance of eps.
func Relative(eps float64) Tolerance { return Tolerance{Rel: eps} }

// Allows reports whether live is within the band around golden.
func (t Tolerance) Allows(golden, live float64) bool {
	if math.IsNaN(golden) || math.IsNaN(live) {
		// NaN golden matches NaN live exactly; anything else is drift.
		return math.IsNaN(golden) && math.IsNaN(live)
	}
	return math.Abs(live-golden) <= t.Abs+t.Rel*math.Abs(golden)
}

// String renders the band for drift reports ("exact", "rel 1e-06",
// "abs 0.5 + rel 1e-03").
func (t Tolerance) String() string {
	switch {
	case t.Abs == 0 && t.Rel == 0:
		return "exact"
	case t.Abs == 0:
		return fmt.Sprintf("rel %g", t.Rel)
	case t.Rel == 0:
		return fmt.Sprintf("abs %g", t.Abs)
	default:
		return fmt.Sprintf("abs %g + rel %g", t.Abs, t.Rel)
	}
}

// Metric is one named value of an artifact. The ID is a stable
// slash-separated path naming the cell it came from, e.g.
// "CG/HT on -4-1/speedup" or "FT/Serial/l2_miss". Tol, when present,
// overrides the artifact's default tolerance for this metric only.
type Metric struct {
	ID    string     `json:"id"`
	Value float64    `json:"value"`
	Unit  string     `json:"unit,omitempty"`
	Tol   *Tolerance `json:"tol,omitempty"`
}

// Artifact is one golden file: every metric of one table or figure, plus
// enough provenance (schema, scale, seed) that Compare can refuse an
// apples-to-oranges check.
type Artifact struct {
	Name   string `json:"name"`
	Schema int    `json:"schema"`
	// Scale and Seed record the core.Options the artifact was generated
	// under; zero for scale-independent artifacts (LMbench, paper
	// targets). Compare fails when they differ between golden and live.
	Scale float64 `json:"scale,omitempty"`
	Seed  uint64  `json:"seed,omitempty"`
	// Note is free-form provenance ("paper targets from DESIGN §3").
	Note       string    `json:"note,omitempty"`
	DefaultTol Tolerance `json:"default_tolerance"`
	Metrics    []Metric  `json:"metrics"`
}

// New returns an empty artifact with the given default tolerance.
func New(name string, tol Tolerance) *Artifact {
	return &Artifact{Name: name, Schema: SchemaVersion, DefaultTol: tol}
}

// Add appends a metric carrying the artifact's default tolerance.
func (a *Artifact) Add(id string, v float64) {
	a.Metrics = append(a.Metrics, Metric{ID: id, Value: v})
}

// AddTol appends a metric with its own tolerance band.
func (a *Artifact) AddTol(id string, v float64, tol Tolerance) {
	t := tol
	a.Metrics = append(a.Metrics, Metric{ID: id, Value: v, Tol: &t})
}

// AddUnit appends a metric with a unit annotation.
func (a *Artifact) AddUnit(id string, v float64, unit string) {
	a.Metrics = append(a.Metrics, Metric{ID: id, Value: v, Unit: unit})
}

// tolFor returns the effective band for metric m.
func (a *Artifact) tolFor(m Metric) Tolerance {
	if m.Tol != nil {
		return *m.Tol
	}
	return a.DefaultTol
}

// normalize sorts the metrics by ID, skipping the sort when they already
// are, and rejects an empty or non-slug artifact name, an empty metric ID
// and a duplicate ID — a duplicate would make a drift report ambiguous
// about which cell moved. An artifact without metrics passes; it
// marshals "metrics": null when Metrics is nil and [] when it is empty.
func (a *Artifact) normalize() error {
	if a.Name == "" {
		return fmt.Errorf("golden: artifact without a name")
	}
	if strings.ContainsAny(a.Name, "/\\ ") {
		return fmt.Errorf("golden: artifact name %q must be a file-name-safe slug", a.Name)
	}
	byID := func(x, y Metric) int { return strings.Compare(x.ID, y.ID) }
	if !slices.IsSortedFunc(a.Metrics, byID) {
		slices.SortStableFunc(a.Metrics, byID)
	}
	for i, m := range a.Metrics {
		if m.ID == "" {
			return fmt.Errorf("golden: %s: metric %d has an empty id", a.Name, i)
		}
		if i > 0 && a.Metrics[i-1].ID == m.ID {
			return fmt.Errorf("golden: %s: duplicate metric id %q", a.Name, m.ID)
		}
	}
	return nil
}

// MarshalCanonical renders the artifact as diff-stable JSON: metrics
// sorted by ID, two-space indentation, trailing newline. Two artifacts
// with the same content always serialize to the same bytes, so golden
// files only change in review when a number actually moves. The bytes
// are those of json.MarshalIndent(a, "", "  ") and a newline, written
// directly: a NaN or infinite value fails with encoding/json's error,
// and FuzzMarshalCanonical holds the two writers together.
func (a *Artifact) MarshalCanonical() ([]byte, error) {
	if err := a.normalize(); err != nil {
		return nil, err
	}
	// Room for every metric without escapes, so the buffer is allocated
	// once whatever the metric count.
	n := 256 + len(a.Name) + len(a.Note)
	for i := range a.Metrics {
		m := &a.Metrics[i]
		n += 96 + len(m.ID) + len(m.Unit)
		if m.Tol != nil {
			n += 128
		}
	}
	b := make([]byte, 0, n)
	b = append(b, "{\n  \"name\": "...)
	b = jsonfmt.AppendString(b, a.Name)
	b = append(b, ",\n  \"schema\": "...)
	b = strconv.AppendInt(b, int64(a.Schema), 10)
	var err error
	if a.Scale != 0 {
		b = append(b, ",\n  \"scale\": "...)
		if b, err = jsonfmt.AppendFloat(b, a.Scale); err != nil {
			return nil, err
		}
	}
	if a.Seed != 0 {
		b = append(b, ",\n  \"seed\": "...)
		b = strconv.AppendUint(b, a.Seed, 10)
	}
	if a.Note != "" {
		b = append(b, ",\n  \"note\": "...)
		b = jsonfmt.AppendString(b, a.Note)
	}
	b = append(b, ",\n  \"default_tolerance\": "...)
	if b, err = appendTolerance(b, a.DefaultTol, "\n  "); err != nil {
		return nil, err
	}
	b = append(b, ",\n  \"metrics\": "...)
	switch {
	case a.Metrics == nil:
		b = append(b, "null"...)
	case len(a.Metrics) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i := range a.Metrics {
			m := &a.Metrics[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    {\n      \"id\": "...)
			b = jsonfmt.AppendString(b, m.ID)
			b = append(b, ",\n      \"value\": "...)
			if b, err = jsonfmt.AppendFloat(b, m.Value); err != nil {
				return nil, err
			}
			if m.Unit != "" {
				b = append(b, ",\n      \"unit\": "...)
				b = jsonfmt.AppendString(b, m.Unit)
			}
			if m.Tol != nil {
				b = append(b, ",\n      \"tol\": "...)
				if b, err = appendTolerance(b, *m.Tol, "\n      "); err != nil {
					return nil, err
				}
			}
			b = append(b, "\n    }"...)
		}
		b = append(b, "\n  ]"...)
	}
	return append(b, "\n}\n"...), nil
}

// appendTolerance appends t as MarshalIndent writes it at the
// indentation nl (a newline and the indent of the line holding t's key):
// {} for the zero band, one line per non-zero field otherwise.
func appendTolerance(b []byte, t Tolerance, nl string) ([]byte, error) {
	if t.Abs == 0 && t.Rel == 0 {
		return append(b, "{}"...), nil
	}
	var err error
	b = append(b, '{')
	if t.Abs != 0 {
		b = append(append(b, nl...), `  "abs": `...)
		if b, err = jsonfmt.AppendFloat(b, t.Abs); err != nil {
			return nil, err
		}
		if t.Rel != 0 {
			b = append(b, ',')
		}
	}
	if t.Rel != 0 {
		b = append(append(b, nl...), `  "rel": `...)
		if b, err = jsonfmt.AppendFloat(b, t.Rel); err != nil {
			return nil, err
		}
	}
	return append(append(b, nl...), '}'), nil
}

// Filename returns the file name an artifact is stored under in a golden
// directory.
func Filename(name string) string { return name + ".json" }

// Write stores the artifact canonically as dir/<name>.json, creating dir
// if needed.
func Write(dir string, a *Artifact) error {
	b, err := a.MarshalCanonical()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, Filename(a.Name)), b, 0o644)
}

// Load reads one artifact file.
func Load(path string) (*Artifact, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a := &Artifact{}
	if err := json.Unmarshal(b, a); err != nil {
		return nil, fmt.Errorf("golden: %s: %w", path, err)
	}
	if err := a.normalize(); err != nil {
		return nil, fmt.Errorf("golden: %s: %w", path, err)
	}
	return a, nil
}

// LoadDir reads every *.json artifact in dir, sorted by name.
func LoadDir(dir string) ([]*Artifact, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []*Artifact
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		a, err := Load(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	if len(out) == 0 {
		return nil, fmt.Errorf("golden: no artifacts in %s", dir)
	}
	return out, nil
}
