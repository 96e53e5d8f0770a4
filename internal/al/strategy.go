// Package al implements the active-learning query strategy of the paper's
// evaluation (Table 1, §2.1): least-confidence uncertainty sampling. The
// IDE engine selects, each iteration, the unlabeled candidate with the
// highest strategy score (Eq. 2: x* = argmax_x u(x)).
package al

import (
	"fmt"
	"math"

	"github.com/uei-db/uei/internal/learn"
)

// Scorer scores a single unlabeled candidate; higher means more informative.
// Scoring one candidate at a time lets the engine stream candidates from
// disk (the full-scan baseline) without materializing the pool.
type Scorer interface {
	// Name identifies the strategy in reports and logs.
	Name() string
	// Score returns the informativeness of x under the current model.
	Score(m learn.Classifier, x []float64) (float64, error)
}

// Candidate pairs an opaque id with a feature vector during selection.
type Candidate struct {
	ID uint64
	X  []float64
}

// Selection reports the winner of an argmax pass.
type Selection struct {
	Candidate Candidate
	Score     float64
	// Scanned is the number of candidates examined.
	Scanned int
}

// SelectArgmax streams candidates from next (which returns false when the
// pool is exhausted) and returns the highest-scoring one. Ties keep the
// earliest candidate so selection is deterministic for a deterministic
// stream. It returns an error when the pool is empty.
func SelectArgmax(s Scorer, m learn.Classifier, next func() (Candidate, bool)) (Selection, error) {
	best := Selection{Score: math.Inf(-1)}
	for {
		c, ok := next()
		if !ok {
			break
		}
		score, err := s.Score(m, c.X)
		if err != nil {
			return Selection{}, fmt.Errorf("al: scoring candidate %d: %w", c.ID, err)
		}
		best.Scanned++
		if score > best.Score {
			best.Score = score
			best.Candidate = c
		}
	}
	if best.Scanned == 0 {
		return Selection{}, fmt.Errorf("al: empty candidate pool")
	}
	return best, nil
}

// SelectFromSlice is SelectArgmax over an in-memory pool.
func SelectFromSlice(s Scorer, m learn.Classifier, pool []Candidate) (Selection, error) {
	i := 0
	return SelectArgmax(s, m, func() (Candidate, bool) {
		if i >= len(pool) {
			return Candidate{}, false
		}
		c := pool[i]
		i++
		return c, true
	})
}
