package learn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// boxTrainingSet builds a labeled 2-D set where the positive class is a box.
func boxTrainingSet(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		p := []float64{rng.Float64() * 10, rng.Float64() * 10}
		X[i] = p
		if p[0] > 3 && p[0] < 7 && p[1] > 3 && p[1] < 7 {
			y[i] = 1
		}
	}
	return X, y
}

func TestQuickAllModelsPosteriorBounds(t *testing.T) {
	models := map[string]func() Classifier{
		"dwknn": func() Classifier { return NewDWKNN(5, nil) },
	}
	for name, mk := range models {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := 6 + rng.Intn(40)
			X := make([][]float64, n)
			y := make([]int, n)
			for i := range X {
				X[i] = []float64{rng.NormFloat64() * 50, rng.NormFloat64() * 50}
				y[i] = i % 2 // guarantee both classes
			}
			c := mk()
			if err := c.Fit(X, y); err != nil {
				return false
			}
			q := []float64{rng.NormFloat64() * 50, rng.NormFloat64() * 50}
			p, err := c.PosteriorPositive(q)
			if err != nil || math.IsNaN(p) || p < 0 || p > 1 {
				return false
			}
			u, err := Uncertainty(c, q)
			return err == nil && u >= 0 && u <= 0.5
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
