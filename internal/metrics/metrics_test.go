package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestConfusionCounts(t *testing.T) {
	var c Confusion
	c.Observe(true, true)   // tp
	c.Observe(true, false)  // fp
	c.Observe(false, true)  // fn
	c.Observe(false, false) // tn
	c.Observe(true, true)   // tp
	if c.TruePositive != 2 || c.FalsePositive != 1 || c.FalseNegative != 1 || c.TrueNegative != 1 {
		t.Fatalf("counts: %+v", c)
	}
	if got, want := c.Precision(), 2.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Precision = %g", got)
	}
	if got, want := c.Recall(), 2.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Recall = %g", got)
	}
	if got, want := c.F1(), 2.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("F1 = %g", got)
	}
	if !strings.Contains(c.String(), "tp=2") {
		t.Errorf("String = %q", c.String())
	}
}

func TestConfusionEdgeCases(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 {
		t.Error("empty confusion should report zeros, not NaN")
	}
	c.Observe(false, false)
	if c.F1() != 0 {
		t.Error("all-negative F1 should be 0")
	}
}

func TestQuickF1Bounds(t *testing.T) {
	f := func(tp, fp, tn, fn uint8) bool {
		c := Confusion{int(tp), int(fp), int(tn), int(fn)}
		f1 := c.F1()
		p, r := c.Precision(), c.Recall()
		if f1 < 0 || f1 > 1 || math.IsNaN(f1) {
			return false
		}
		// F1 lies between min and max of precision and recall.
		lo, hi := math.Min(p, r), math.Max(p, r)
		return f1 >= lo-1e-12 && f1 <= hi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSeriesBasics(t *testing.T) {
	s := &Series{Name: "uei"}
	s.Append(10, 0.5)
	s.Append(20, 0.8)
	s.Append(30, 0.9)
	if len(s.Points) != 3 {
		t.Errorf("Len = %d", len(s.Points))
	}
	if y, ok := s.YAt(25); !ok || y != 0.8 {
		t.Errorf("YAt(25) = %g, %v", y, ok)
	}
	if _, ok := s.YAt(5); ok {
		t.Error("YAt before first point should report false")
	}
	if x, ok := s.FirstXReaching(0.8); !ok || x != 20 {
		t.Errorf("FirstXReaching = %g, %v", x, ok)
	}
	if _, ok := s.FirstXReaching(0.99); ok {
		t.Error("unreachable threshold should report false")
	}
}

func TestMeanSeries(t *testing.T) {
	a := &Series{Name: "r1"}
	a.Append(10, 0.4)
	a.Append(20, 0.8)
	b := &Series{Name: "r2"}
	b.Append(10, 0.6)
	b.Append(20, 1.0)
	m := MeanSeries("mean", []*Series{a, b})
	if len(m.Points) != 2 {
		t.Fatalf("Len = %d", len(m.Points))
	}
	if y, _ := m.YAt(10); math.Abs(y-0.5) > 1e-12 {
		t.Errorf("mean at 10 = %g", y)
	}
	if y, _ := m.YAt(20); math.Abs(y-0.9) > 1e-12 {
		t.Errorf("mean at 20 = %g", y)
	}
}

func TestMeanSeriesRaggedRuns(t *testing.T) {
	a := &Series{Name: "r1"}
	a.Append(10, 0.4)
	b := &Series{Name: "r2"}
	b.Append(10, 0.6)
	b.Append(20, 1.0)
	m := MeanSeries("mean", []*Series{a, b})
	// At x=20 run a step-interpolates to 0.4, so the mean is 0.7.
	if y, _ := m.YAt(20); math.Abs(y-0.7) > 1e-12 {
		t.Errorf("mean at 20 = %g", y)
	}
}

func TestFormatTable(t *testing.T) {
	a := &Series{Name: "uei"}
	a.Append(1, 0.5)
	b := &Series{Name: "mysql"}
	b.Append(2, 0.25)
	out := FormatTable("labels", "%.2f", a, b)
	if !strings.Contains(out, "uei") || !strings.Contains(out, "mysql") {
		t.Errorf("missing headers:\n%s", out)
	}
	if !strings.Contains(out, "0.50") || !strings.Contains(out, "0.25") {
		t.Errorf("missing values:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Errorf("missing placeholder for absent value:\n%s", out)
	}
}

func TestQuickMeanSeriesBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		runs := make([]*Series, 1+rng.Intn(5))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range runs {
			runs[i] = &Series{Name: "r"}
			n := 1 + rng.Intn(10)
			x := 0.0
			for j := 0; j < n; j++ {
				x += 1 + rng.Float64()*5
				y := rng.Float64()
				if y < lo {
					lo = y
				}
				if y > hi {
					hi = y
				}
				runs[i].Append(x, y)
			}
		}
		m := MeanSeries("m", runs)
		for _, p := range m.Points {
			if p.Y < lo-1e-12 || p.Y > hi+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
