package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := NewTable("Epoch times", "1", "2", "4", "8")
	tab.AddRow("reddit", "0.033", "0.017", "0.012", "0.012")
	tab.AddRow("products", "0.355", "0.202", "0.110", "0.067")
	out := tab.String()
	if !strings.Contains(out, "Epoch times") || !strings.Contains(out, "reddit") {
		t.Fatalf("missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("want title+header+2 rows, got %d lines", len(lines))
	}
	// Columns must align: all data lines equal length.
	if len(lines[2]) != len(lines[3]) {
		t.Fatalf("rows not aligned:\n%s", out)
	}
	if len(tab.rowNames) != 2 || tab.cell("reddit", 0) != "0.033" || tab.cell("nope", 0) != "" {
		t.Fatalf("accessors wrong")
	}
}

func TestTableBadRowPanics(t *testing.T) {
	tab := NewTable("x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	tab.AddRow("r", "only-one")
}

func TestTableDuplicateRowPanics(t *testing.T) {
	tab := NewTable("x", "a")
	tab.AddRow("r", "1")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	tab.AddRow("r", "2")
}

func TestSecondsFormatting(t *testing.T) {
	cases := map[float64]string{
		36.45: "36.5",
		0.355: "0.355",
		0.033: "0.0330",
		-1:    "OOM",
	}
	for in, want := range cases {
		if got := Seconds(in); got != want {
			t.Fatalf("Seconds(%v)=%q, want %q", in, got, want)
		}
	}
}

func TestSpeedupFormatting(t *testing.T) {
	if Speedup(2.5) != "2.50x" || Speedup(0) != "-" {
		t.Fatalf("speedup formatting wrong")
	}
}

func TestBars(t *testing.T) {
	out := Bars("speedups", []string{"a", "bb"}, []float64{1, 2}, 10)
	if !strings.Contains(out, "##########") {
		t.Fatalf("max bar not full width:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want title + 2 bars, got %d", len(lines))
	}
	// The half-value bar must be half the width.
	if !strings.Contains(lines[1], "|##### 1") {
		t.Fatalf("half bar wrong: %q", lines[1])
	}
}

func TestBarsZeroValues(t *testing.T) {
	out := Bars("", []string{"x"}, []float64{0}, 10)
	if !strings.Contains(out, "| 0") {
		t.Fatalf("zero bar wrong: %q", out)
	}
}

func TestBarsMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	Bars("", []string{"a"}, nil, 10)
}

func TestPercentages(t *testing.T) {
	out := Percentages(map[string]float64{"SpMM": 3, "GeMM": 1})
	if out != "GeMM=25.0% SpMM=75.0%" {
		t.Fatalf("percentages %q", out)
	}
	if got := Percentages(map[string]float64{"a": 0}); got != "a=0.0%" {
		t.Fatalf("zero-total percentages %q", got)
	}
}

// cell returns the named cell, or "" when absent.
func (t *Table) cell(row string, col int) string {
	cells, ok := t.rows[row]
	if !ok || col < 0 || col >= len(cells) {
		return ""
	}
	return cells[col]
}
