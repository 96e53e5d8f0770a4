package learn

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/uei-db/uei/internal/kernel"
)

// Committee trains an ensemble of classifiers on bootstrap resamples of the
// labeled set. It backs the query-by-committee strategy (Seung et al. 1992,
// reference [21]): disagreement among members measures informativeness. The
// committee is itself a Classifier (mean posterior), so it can also serve as
// a bagged uncertainty estimator.
type Committee struct {
	// Members are the ensemble models; NewCommittee builds them.
	Members []Classifier
	// Seed drives bootstrap resampling.
	Seed int64

	fitted bool
}

// NewCommittee builds a committee of size n using factory to construct each
// member (factory receives the member index so implementations can vary
// internal seeds).
func NewCommittee(n int, seed int64, factory func(i int) Classifier) (*Committee, error) {
	if n < 2 {
		return nil, fmt.Errorf("learn: committee needs at least 2 members, got %d", n)
	}
	if factory == nil {
		return nil, fmt.Errorf("learn: nil member factory")
	}
	members := make([]Classifier, n)
	for i := range members {
		members[i] = factory(i)
		if members[i] == nil {
			return nil, fmt.Errorf("learn: factory returned nil member %d", i)
		}
	}
	return &Committee{Members: members, Seed: seed}, nil
}

// Fit trains each member on a bootstrap resample that is forced to contain
// at least one example of each class (otherwise posteriors are vacuous).
func (c *Committee) Fit(X [][]float64, y []int) error {
	if _, err := checkTrainingSet(X, y); err != nil {
		return err
	}
	firstPos, firstNeg := -1, -1
	for i, label := range y {
		if label == ClassPositive && firstPos < 0 {
			firstPos = i
		}
		if label == ClassNegative && firstNeg < 0 {
			firstNeg = i
		}
	}
	if firstPos < 0 || firstNeg < 0 {
		return fmt.Errorf("learn: committee needs both classes present")
	}

	rng := rand.New(rand.NewSource(c.Seed))
	n := len(X)
	for m, member := range c.Members {
		bx := make([][]float64, 0, n)
		by := make([]int, 0, n)
		hasPos, hasNeg := false, false
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			bx = append(bx, X[j])
			by = append(by, y[j])
			hasPos = hasPos || y[j] == ClassPositive
			hasNeg = hasNeg || y[j] == ClassNegative
		}
		if !hasPos {
			bx = append(bx, X[firstPos])
			by = append(by, y[firstPos])
		}
		if !hasNeg {
			bx = append(bx, X[firstNeg])
			by = append(by, y[firstNeg])
		}
		if err := member.Fit(bx, by); err != nil {
			return fmt.Errorf("learn: committee member %d: %w", m, err)
		}
	}
	c.fitted = true
	return nil
}

// Fitted reports whether Fit has succeeded.
func (c *Committee) Fitted() bool { return c.fitted }

// PosteriorPositive returns the mean member posterior.
func (c *Committee) PosteriorPositive(x []float64) (float64, error) {
	if !c.fitted {
		return 0, ErrNotFitted
	}
	var sum float64
	for _, m := range c.Members {
		p, err := m.PosteriorPositive(x)
		if err != nil {
			return 0, err
		}
		sum += p
	}
	return clampProb(sum / float64(len(c.Members))), nil
}

// BlockPosterior implements BlockClassifier: the mean member posterior over
// a packed block, member-by-member in member order — the same accumulation
// sequence as PosteriorPositive, ending in the same divide — so results are
// bit-identical to it. Members without a block path fall back to row
// reconstruction (a pure copy, so their arithmetic is unchanged). The
// member buffer is pooled: zero steady-state allocation.
func (c *Committee) BlockPosterior(blk *kernel.Block, lo, hi int, out []float64) error {
	if !c.fitted {
		return ErrNotFitted
	}
	w := hi - lo
	buf := committeeTmpPool.Get().(*committeeTmp)
	defer committeeTmpPool.Put(buf)
	if cap(buf.tmp) < w {
		buf.tmp = make([]float64, w)
	}
	if cap(buf.row) < blk.Dims {
		buf.row = make([]float64, blk.Dims)
	}
	tmp := buf.tmp[:w]
	dst := out[:w]
	for i := range dst {
		dst[i] = 0
	}
	for _, m := range c.Members {
		if bm, ok := m.(BlockClassifier); ok {
			if err := bm.BlockPosterior(blk, lo, hi, tmp); err != nil {
				return err
			}
		} else {
			for i := 0; i < w; i++ {
				p, err := m.PosteriorPositive(blk.Row(lo+i, buf.row))
				if err != nil {
					return err
				}
				tmp[i] = p
			}
		}
		for i, p := range tmp {
			dst[i] += p
		}
	}
	// Divide (not multiply by a reciprocal) so the result is bit-identical
	// to PosteriorPositive's sum/n.
	n := float64(len(c.Members))
	for i := range dst {
		dst[i] = clampProb(dst[i] / n)
	}
	return nil
}

type committeeTmp struct {
	tmp []float64
	row []float64
}

var committeeTmpPool = sync.Pool{New: func() any { return &committeeTmp{} }}

// VoteDisagreement returns the fraction of members whose hard vote differs
// from the majority, in [0, 0.5]. Query-by-committee selects the point that
// maximizes it.
func (c *Committee) VoteDisagreement(x []float64) (float64, error) {
	if !c.fitted {
		return 0, ErrNotFitted
	}
	pos := 0
	for _, m := range c.Members {
		cls, err := Predict(m, x)
		if err != nil {
			return 0, err
		}
		if cls == ClassPositive {
			pos++
		}
	}
	frac := float64(pos) / float64(len(c.Members))
	if frac > 0.5 {
		frac = 1 - frac
	}
	return frac, nil
}
