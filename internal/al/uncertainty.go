package al

import (
	"github.com/uei-db/uei/internal/learn"
)

// LeastConfidence is Eq. (1) of the paper, u(x) = 1 - p(ŷ|x): the
// uncertainty-sampling variant UEI is built around. For a binary model the
// score equals min(p, 1-p) and is maximized at p = 0.5.
type LeastConfidence struct{}

// Name implements Scorer.
func (LeastConfidence) Name() string { return "least-confidence" }

// Score implements Scorer.
func (LeastConfidence) Score(m learn.Classifier, x []float64) (float64, error) {
	return learn.Uncertainty(m, x)
}

// FromPosterior is Score on a row whose positive posterior is p, bit for
// bit (learn.Uncertainty's fold). A caller that already holds the posterior
// (the engine's neighbour table keeps every pool row's) scores without a
// model call.
func (LeastConfidence) FromPosterior(p float64) float64 {
	if p > 0.5 {
		return 1 - p
	}
	return p
}
