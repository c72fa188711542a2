package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeomean(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{4}, 4}, {[]float64{1, 4}, 2}, {[]float64{2, 2, 2}, 2}} {
		if g, err := GeomeanErr(tc.xs); err != nil || math.Abs(g-tc.want) > 1e-12 {
			t.Errorf("GeomeanErr(%v) = %v, %v; want %v", tc.xs, g, err, tc.want)
		}
	}
}

func TestGeomeanErr(t *testing.T) {
	if g, err := GeomeanErr(nil); g != 0 || err != nil {
		t.Errorf("GeomeanErr(nil) = %v, %v", g, err)
	}
	if g, err := GeomeanErr([]float64{1, 4}); err != nil || math.Abs(g-2) > 1e-12 {
		t.Errorf("GeomeanErr([1,4]) = %v, %v", g, err)
	}
	if _, err := GeomeanErr([]float64{2, -1}); err == nil || !strings.Contains(err.Error(), "index 1") {
		t.Errorf("GeomeanErr([-1]) err = %v, want error naming index 1", err)
	}
	if _, err := GeomeanErr([]float64{0}); err == nil {
		t.Error("GeomeanErr accepted 0")
	}
}

// Property: geomean lies between min and max.
func TestGeomeanBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		var xs []float64
		for _, r := range raw {
			xs = append(xs, float64(r)+1)
		}
		if len(xs) == 0 {
			return true
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		g, err := GeomeanErr(xs)
		return err == nil && g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 {
		t.Error("Ratio(6,3) != 2")
	}
	if Ratio(1, 0) != 0 {
		t.Error("Ratio(_,0) != 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Name", "Value")
	tb.AddRow("alpha", "1")
	tb.AddRowf("beta", 2.5)
	out := tb.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "2.50") {
		t.Errorf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4", len(lines))
	}
	// Overflowing cells are dropped.
	tb2 := NewTable("A")
	tb2.AddRow("x", "y", "z")
	if strings.Contains(tb2.String(), "y") {
		t.Error("overflow cell retained")
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.239); got != "23.9%" {
		t.Errorf("Pct = %q", got)
	}
}
