package al

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/uei-db/uei/internal/learn"
)

// fitKNN returns a DWKNN trained on a 1-D set with negatives at 0 and
// positives at 1, putting the decision boundary at 0.5.
func fitKNN(t *testing.T) *learn.DWKNN {
	t.Helper()
	c := learn.NewDWKNN(2, []float64{1})
	X := [][]float64{{0}, {0.1}, {0.9}, {1}}
	y := []int{0, 0, 1, 1}
	if err := c.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLeastConfidencePrefersBoundary(t *testing.T) {
	m := fitKNN(t)
	s := LeastConfidence{}
	boundary, err := s.Score(m, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	far, err := s.Score(m, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if boundary <= far {
		t.Errorf("boundary score %g should exceed far score %g", boundary, far)
	}
	if s.Name() != "least-confidence" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestSelectArgmaxPicksBoundaryCandidate(t *testing.T) {
	m := fitKNN(t)
	pool := []Candidate{
		{ID: 1, X: []float64{0}},
		{ID: 2, X: []float64{0.5}},
		{ID: 3, X: []float64{1}},
	}
	sel, err := SelectFromSlice(LeastConfidence{}, m, pool)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Candidate.ID != 2 {
		t.Errorf("selected %d, want 2", sel.Candidate.ID)
	}
	if sel.Scanned != 3 {
		t.Errorf("scanned %d, want 3", sel.Scanned)
	}
}

func TestSelectArgmaxEmptyPool(t *testing.T) {
	m := fitKNN(t)
	if _, err := SelectFromSlice(LeastConfidence{}, m, nil); err == nil {
		t.Error("empty pool should fail")
	}
}

func TestSelectArgmaxDeterministicTies(t *testing.T) {
	m := fitKNN(t)
	pool := []Candidate{
		{ID: 7, X: []float64{0.5}},
		{ID: 8, X: []float64{0.5}},
	}
	for trial := 0; trial < 5; trial++ {
		sel, err := SelectFromSlice(LeastConfidence{}, m, pool)
		if err != nil {
			t.Fatal(err)
		}
		if sel.Candidate.ID != 7 {
			t.Fatalf("tie must keep the first candidate, got %d", sel.Candidate.ID)
		}
	}
}

func TestQuickScoresFinite(t *testing.T) {
	m := fitKNN(t)
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true // skip degenerate inputs
		}
		got, err := LeastConfidence{}.Score(m, []float64{v})
		return err == nil && !math.IsNaN(got) && !math.IsInf(got, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
