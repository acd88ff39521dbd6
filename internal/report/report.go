// Package report renders the characterization results as aligned text
// tables, CSV, and ASCII box-and-whisker plots — the output layer of
// cmd/xeonchar that stands in for the paper's figures.
package report

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"xeonomp/internal/stats"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends a row; the cell count should match the headers.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddF appends a row of formatted values: strings pass through, float64
// render with %.3f, ints with %d.
func (t *Table) AddF(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case int:
			row[i] = fmt.Sprintf("%d", v)
		case int64:
			row[i] = fmt.Sprintf("%d", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Add(row...)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s", w, c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (no quoting: callers do
// not put commas in cells).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, ","))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// JSON renders the table as indented JSON ({title, headers, rows}) with a
// trailing newline — the machine-readable twin of String/CSV that
// cmd/xeonchar emits next to each CSV under -outdir.
func (t *Table) JSON() ([]byte, error) {
	out := struct {
		Title   string     `json:"title"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}{t.Title, t.Headers, t.Rows}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// BoxPlots renders horizontal ASCII box-and-whisker plots, one per label,
// sharing a common scale — the Figure-5 rendering. The box spans Q1..Q3
// with the median marked '|', whiskers span min..max, matching the paper's
// description of its plot.
func BoxPlots(title string, labels []string, boxes []stats.BoxPlot, width int) string {
	if len(labels) != len(boxes) {
		panic("report: labels and boxes length mismatch")
	}
	if width < 20 {
		width = 60
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, bx := range boxes {
		lo = math.Min(lo, bx.Min)
		hi = math.Max(hi, bx.Max)
	}
	if !(hi > lo) {
		hi = lo + 1
	}
	span := hi - lo
	pos := func(v float64) int {
		p := int(math.Round((v - lo) / span * float64(width-1)))
		if p < 0 {
			p = 0
		}
		if p >= width {
			p = width - 1
		}
		return p
	}

	labW := 0
	for _, l := range labels {
		if len(l) > labW {
			labW = len(l)
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	fmt.Fprintf(&b, "%-*s  %-*s  %s\n", labW, "config", width, fmt.Sprintf("scale %.2f .. %.2f", lo, hi), "min/q1/med/q3/max")
	for i, bx := range boxes {
		line := make([]byte, width)
		for j := range line {
			line[j] = ' '
		}
		for j := pos(bx.Min); j <= pos(bx.Max); j++ {
			line[j] = '-'
		}
		for j := pos(bx.Q1); j <= pos(bx.Q3); j++ {
			line[j] = '='
		}
		line[pos(bx.Min)] = '|'
		line[pos(bx.Max)] = '|'
		line[pos(bx.Median)] = '#'
		fmt.Fprintf(&b, "%-*s  %s  %.2f/%.2f/%.2f/%.2f/%.2f\n",
			labW, labels[i], string(line), bx.Min, bx.Q1, bx.Median, bx.Q3, bx.Max)
	}
	return b.String()
}
