package golden

import (
	"fmt"
	"math"
	"strings"

	"xeonomp/internal/report"
)

// DriftKind classifies one comparison failure.
type DriftKind int

const (
	// Drifted: the metric exists on both sides but the live value left
	// the golden tolerance band.
	Drifted DriftKind = iota
	// MissingInLive: the golden artifact has a metric the live run no
	// longer produces (a renamed cell, a dropped benchmark).
	MissingInLive
	// UnexpectedInLive: the live run produced a metric the golden
	// artifact has never seen — a shape change that needs -update-golden.
	UnexpectedInLive
)

func (k DriftKind) String() string {
	switch k {
	case Drifted:
		return "drifted"
	case MissingInLive:
		return "missing in live run"
	case UnexpectedInLive:
		return "not in golden artifact"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Drift is one failed metric: which cell moved, by how much, and against
// which tolerance.
type Drift struct {
	ID           string
	Kind         DriftKind
	Golden, Live float64
	Tol          Tolerance
}

// Delta returns live - golden.
func (d Drift) Delta() float64 { return d.Live - d.Golden }

func (d Drift) String() string {
	switch d.Kind {
	case MissingInLive:
		return fmt.Sprintf("%s: golden %g, %s", d.ID, d.Golden, d.Kind)
	case UnexpectedInLive:
		return fmt.Sprintf("%s: live %g, %s", d.ID, d.Live, d.Kind)
	}
	pct := ""
	if d.Golden != 0 && !math.IsNaN(d.Golden) {
		pct = fmt.Sprintf(", %+.3f%%", 100*d.Delta()/math.Abs(d.Golden))
	}
	return fmt.Sprintf("%s: golden %g, live %g (Δ %+g%s), tolerance %s",
		d.ID, d.Golden, d.Live, d.Delta(), pct, d.Tol)
}

// Report is the outcome of comparing one live artifact against its golden
// counterpart.
type Report struct {
	Artifact string
	// Checked counts golden metrics examined (including missing ones).
	Checked int
	// Drifts lists every failure, golden metric order.
	Drifts []Drift
	// Problems are whole-artifact mismatches (schema, scale, seed) that
	// make the metric diff untrustworthy.
	Problems []string
}

// OK reports whether every metric stayed inside its band and the
// provenance matched.
func (r *Report) OK() bool { return len(r.Drifts) == 0 && len(r.Problems) == 0 }

// String renders the human-readable drift report: one header line, then
// one line per problem and per drifted metric.
func (r *Report) String() string {
	var b strings.Builder
	if r.OK() {
		fmt.Fprintf(&b, "%s: ok — %d metric(s) within tolerance", r.Artifact, r.Checked)
		return b.String()
	}
	fmt.Fprintf(&b, "%s: FAIL — %d of %d metric(s) out of tolerance", r.Artifact, len(r.Drifts), r.Checked)
	for _, p := range r.Problems {
		fmt.Fprintf(&b, "\n  %s", p)
	}
	for _, d := range r.Drifts {
		fmt.Fprintf(&b, "\n  %s", d)
	}
	return b.String()
}

// Table renders the drifted metrics as an aligned report.Table, the same
// output layer the figures use.
func (r *Report) Table() *report.Table {
	t := report.NewTable(fmt.Sprintf("Golden drift — %s", r.Artifact),
		"metric", "golden", "live", "delta", "tolerance", "status")
	for _, d := range r.Drifts {
		switch d.Kind {
		case MissingInLive:
			t.Add(d.ID, fmt.Sprintf("%g", d.Golden), "—", "—", d.Tol.String(), d.Kind.String())
		case UnexpectedInLive:
			t.Add(d.ID, "—", fmt.Sprintf("%g", d.Live), "—", d.Tol.String(), d.Kind.String())
		default:
			t.Add(d.ID, fmt.Sprintf("%g", d.Golden), fmt.Sprintf("%g", d.Live),
				fmt.Sprintf("%+g", d.Delta()), d.Tol.String(), d.Kind.String())
		}
	}
	return t
}

// Compare checks a live artifact against its golden counterpart. The
// golden side supplies the tolerance bands — golden files are
// self-describing, so tightening or loosening a band is a reviewed change
// to the artifact, not to code. Metric sets must match exactly: a metric
// that vanished or appeared is reported by name, not ignored.
func Compare(gold, live *Artifact) (*Report, error) {
	if err := gold.normalize(); err != nil {
		return nil, err
	}
	if err := live.normalize(); err != nil {
		return nil, err
	}
	if gold.Name != live.Name {
		return nil, fmt.Errorf("golden: comparing artifact %q against %q", gold.Name, live.Name)
	}
	r := &Report{Artifact: gold.Name, Checked: len(gold.Metrics)}
	if gold.Schema != live.Schema {
		r.Problems = append(r.Problems,
			fmt.Sprintf("schema mismatch: golden v%d, live v%d — regenerate with -update-golden", gold.Schema, live.Schema))
	}
	if gold.Scale != live.Scale {
		r.Problems = append(r.Problems,
			fmt.Sprintf("scale mismatch: golden generated at -scale %g, live run at -scale %g", gold.Scale, live.Scale))
	}
	if gold.Seed != live.Seed {
		r.Problems = append(r.Problems,
			fmt.Sprintf("seed mismatch: golden generated at -seed %d, live run at -seed %d", gold.Seed, live.Seed))
	}
	if len(r.Problems) > 0 {
		// A provenance mismatch would drown the report in meaningless
		// per-metric drift; stop at the whole-artifact diagnosis.
		return r, nil
	}
	// Both lists are sorted by ID and free of duplicates, so one merge
	// walk pairs them up.
	var unexpected []Drift
	gm, lm := gold.Metrics, live.Metrics
	for len(gm) > 0 || len(lm) > 0 {
		switch {
		case len(lm) == 0 || len(gm) > 0 && gm[0].ID < lm[0].ID:
			r.Drifts = append(r.Drifts, Drift{ID: gm[0].ID, Kind: MissingInLive, Golden: gm[0].Value, Tol: gold.tolFor(gm[0])})
			gm = gm[1:]
		case len(gm) == 0 || lm[0].ID < gm[0].ID:
			// No golden counterpart; reported after the golden-order drifts.
			unexpected = append(unexpected, Drift{ID: lm[0].ID, Kind: UnexpectedInLive, Live: lm[0].Value, Tol: gold.DefaultTol})
			lm = lm[1:]
		default:
			if tol := gold.tolFor(gm[0]); !tol.Allows(gm[0].Value, lm[0].Value) {
				r.Drifts = append(r.Drifts, Drift{ID: gm[0].ID, Kind: Drifted, Golden: gm[0].Value, Live: lm[0].Value, Tol: tol})
			}
			gm, lm = gm[1:], lm[1:]
		}
	}
	r.Drifts = append(r.Drifts, unexpected...)
	return r, nil
}
