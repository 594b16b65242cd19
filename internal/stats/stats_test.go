package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestArithmeticMean(t *testing.T) {
	if got := ArithmeticMean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("mean = %v", got)
	}
	if got := ArithmeticMean(nil); got != 0 {
		t.Errorf("empty mean = %v", got)
	}
}

func TestHarmonicMean(t *testing.T) {
	// Classic: harmonic mean of 1 and 3 is 1.5.
	if got := HarmonicMean([]float64{1, 3}); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("hmean = %v, want 1.5", got)
	}
	if got := HarmonicMean(nil); got != 0 {
		t.Errorf("empty hmean = %v", got)
	}
	if got := HarmonicMean([]float64{0, -1}); got != 0 {
		t.Errorf("non-positive hmean = %v", got)
	}
}

func TestHarmonicLeqArithmetic(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			x = math.Abs(x)
			if x > 1e-9 && x < 1e12 && !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		return HarmonicMean(xs) <= ArithmeticMean(xs)*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{Title: "Fig X", Cols: []string{"bench", "speedup"}}
	tb.AddRow("compress", "2.50")
	tb.AddRow("go", "1.20")
	out := tb.Render()
	if !strings.Contains(out, "Fig X") || !strings.Contains(out, "compress") {
		t.Errorf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// title, underline, header, separator, 2 rows
	if len(lines) != 6 {
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
	// Columns align: "speedup" starts at the same offset everywhere.
	hdr := lines[2]
	row := lines[4]
	if strings.Index(hdr, "speedup") != strings.Index(row, "2.50") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestFormatters(t *testing.T) {
	if F2(1.234) != "1.23" {
		t.Errorf("F2 = %q", F2(1.234))
	}
	if Pct(0.256) != "25.6%" {
		t.Errorf("Pct = %q", Pct(0.256))
	}
}
