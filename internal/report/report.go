// Package report formats the experiment outputs — tables and bar/line
// series — the way the paper presents them, so the bench harness and the
// mggcn-bench CLI print directly comparable rows.
package report

import (
	"fmt"
	"sort"
	"strings"
)

// Table is a simple labeled grid with row and column headers.
type Table struct {
	Title    string
	ColNames []string
	rowNames []string
	rows     map[string][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, cols ...string) *Table {
	return &Table{Title: title, ColNames: cols, rows: map[string][]string{}}
}

// AddRow appends a row; the cell count must match the column headers.
func (t *Table) AddRow(name string, cells ...string) {
	if len(cells) != len(t.ColNames) {
		panic(fmt.Sprintf("report: row %q has %d cells for %d columns", name, len(cells), len(t.ColNames)))
	}
	if _, dup := t.rows[name]; dup {
		panic(fmt.Sprintf("report: duplicate row %q", name))
	}
	t.rowNames = append(t.rowNames, name)
	t.rows[name] = cells
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.ColNames)+1)
	widths[0] = len("dataset")
	for _, r := range t.rowNames {
		if len(r) > widths[0] {
			widths[0] = len(r)
		}
	}
	for c, name := range t.ColNames {
		widths[c+1] = len(name)
		for _, r := range t.rowNames {
			if l := len(t.rows[r][c]); l > widths[c+1] {
				widths[c+1] = l
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	pad := func(s string, w int) string { return s + strings.Repeat(" ", w-len(s)) }
	b.WriteString(pad("", widths[0]))
	for c, name := range t.ColNames {
		b.WriteString("  " + pad(name, widths[c+1]))
	}
	b.WriteString("\n")
	for _, r := range t.rowNames {
		b.WriteString(pad(r, widths[0]))
		for c := range t.ColNames {
			b.WriteString("  " + pad(t.rows[r][c], widths[c+1]))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Seconds formats a duration in seconds the way the paper's tables do.
func Seconds(s float64) string {
	switch {
	case s < 0:
		return "OOM"
	case s >= 10:
		return fmt.Sprintf("%.1f", s)
	case s >= 0.1:
		return fmt.Sprintf("%.3f", s)
	default:
		return fmt.Sprintf("%.4f", s)
	}
}

// Speedup formats a speedup factor.
func Speedup(x float64) string {
	if x <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", x)
}

// Bars renders a labeled horizontal bar chart (one line per entry) with
// bars scaled to maxWidth characters — the text stand-in for the paper's
// bar figures.
func Bars(title string, labels []string, values []float64, maxWidth int) string {
	if len(labels) != len(values) {
		panic("report: label/value length mismatch")
	}
	var max float64
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	wl := 0
	for _, l := range labels {
		if len(l) > wl {
			wl = len(l)
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	for i, l := range labels {
		n := 0
		if max > 0 {
			n = int(values[i] / max * float64(maxWidth))
		}
		fmt.Fprintf(&b, "%s%s |%s %.4g\n", l, strings.Repeat(" ", wl-len(l)), strings.Repeat("#", n), values[i])
	}
	return b.String()
}

// Percentages normalizes a map of float values to percentages in a
// deterministic key order and renders "k=v%" pairs.
func Percentages(m map[string]float64) string {
	var total float64
	for _, v := range m {
		total += v
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		pct := 0.0
		if total > 0 {
			pct = 100 * m[k] / total
		}
		parts = append(parts, fmt.Sprintf("%s=%.1f%%", k, pct))
	}
	return strings.Join(parts, " ")
}
