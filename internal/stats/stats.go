// Package stats provides the small statistical and table-formatting
// helpers shared by the experiment harness.  Averaging conventions follow
// the paper's §4.1: speed-ups are averaged with the harmonic mean,
// percentages with the arithmetic mean.
package stats

import (
	"fmt"
	"strings"
)

// ArithmeticMean returns the mean of xs (0 for an empty slice).
func ArithmeticMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// HarmonicMean returns n / sum(1/x).  Non-positive entries are skipped, as
// a harmonic mean is undefined for them; an empty or all-skipped slice
// yields 0.
func HarmonicMean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		sum += 1 / x
		n++
	}
	if n == 0 || sum == 0 {
		return 0
	}
	return float64(n) / sum
}

// Table is a printable result table: one paper figure or table.
type Table struct {
	Title string
	Cols  []string
	Rows  [][]string
	Note  string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("=", len(t.Title)))
		b.WriteByte('\n')
	}
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Cols)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Note != "" {
		b.WriteString(t.Note)
		b.WriteByte('\n')
	}
	return b.String()
}

// F2 formats a float with two decimals (speed-ups, trace sizes).
func F2(v float64) string { return fmt.Sprintf("%.2f", v) }

// Pct formats a fraction as a percentage with one decimal.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
