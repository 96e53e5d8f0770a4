package learn

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/uei-db/uei/internal/kernel"
)

// Logistic is an L2-regularized logistic-regression classifier trained with
// mini-batch stochastic gradient descent. Features are standardized
// internally (z-scores from the training set) so the learning rate is scale
// free. It serves as the linear probabilistic model alternative to DWKNN;
// note that a single linear boundary cannot enclose a box-shaped interest
// region, so on the paper's workload it plateaus below k-NN — a useful
// contrast in the strategy/estimator ablations.
type Logistic struct {
	// Epochs is the number of passes over the training set (default 200).
	Epochs int
	// LearningRate is the initial SGD step (default 0.1, decayed 1/sqrt(t)).
	LearningRate float64
	// L2 is the ridge penalty (default 1e-4).
	L2 float64
	// Seed fixes the shuffling order for reproducibility.
	Seed int64

	w      []float64 // weights in standardized space
	b      float64
	mean   []float64
	std    []float64
	dims   int
	fitted bool
}

// NewLogistic returns a Logistic with default hyperparameters.
func NewLogistic(seed int64) *Logistic {
	return &Logistic{Epochs: 200, LearningRate: 0.1, L2: 1e-4, Seed: seed}
}

// Fit trains the model from scratch on the labeled set.
func (c *Logistic) Fit(X [][]float64, y []int) error {
	dims, err := checkTrainingSet(X, y)
	if err != nil {
		return err
	}
	epochs := c.Epochs
	if epochs <= 0 {
		epochs = 200
	}
	lr := c.LearningRate
	if lr <= 0 {
		lr = 0.1
	}
	if c.L2 < 0 {
		return fmt.Errorf("learn: negative L2 penalty %g", c.L2)
	}

	mean := make([]float64, dims)
	std := make([]float64, dims)
	for _, row := range X {
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(len(X))
	}
	for _, row := range X {
		for j, v := range row {
			d := v - mean[j]
			std[j] += d * d
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / float64(len(X)))
		if std[j] == 0 {
			std[j] = 1
		}
	}

	// Standardize once up front.
	Z := make([][]float64, len(X))
	for i, row := range X {
		z := make([]float64, dims)
		for j, v := range row {
			z[j] = (v - mean[j]) / std[j]
		}
		Z[i] = z
	}

	w := make([]float64, dims)
	b := 0.0
	rng := rand.New(rand.NewSource(c.Seed))
	order := rng.Perm(len(Z))
	t := 1.0
	for epoch := 0; epoch < epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			step := lr / math.Sqrt(t)
			t++
			z := Z[i]
			pred := sigmoid(dot(w, z) + b)
			g := pred - float64(y[i])
			for j := range w {
				w[j] -= step * (g*z[j] + c.L2*w[j])
			}
			b -= step * g
		}
	}

	c.w, c.b = w, b
	c.mean, c.std = mean, std
	c.dims = dims
	c.fitted = true
	return nil
}

// Fitted reports whether Fit has succeeded.
func (c *Logistic) Fitted() bool { return c.fitted }

// PosteriorPositive returns sigmoid(w·z + b) for the standardized query.
func (c *Logistic) PosteriorPositive(x []float64) (float64, error) {
	if !c.fitted {
		return 0, ErrNotFitted
	}
	if len(x) != c.dims {
		return 0, fmt.Errorf("learn: query has %d dims, model has %d", len(x), c.dims)
	}
	s := c.b
	for j, v := range x {
		s += c.w[j] * (v - c.mean[j]) / c.std[j]
	}
	return clampProb(sigmoid(s)), nil
}

// BlockPosterior implements BlockClassifier: a standardized dot-product
// over the block's columns. Per point the accumulation runs over
// dimensions in ascending order with the scalar path's exact
// multiply-then-divide expression, so results are bit-identical to
// PosteriorPositive.
func (c *Logistic) BlockPosterior(blk *kernel.Block, lo, hi int, out []float64) error {
	if !c.fitted {
		return ErrNotFitted
	}
	if blk.Dims != c.dims {
		return fmt.Errorf("learn: block has %d dims, model has %d", blk.Dims, c.dims)
	}
	acc := out[:hi-lo]
	for i := range acc {
		acc[i] = c.b
	}
	for j := 0; j < c.dims; j++ {
		kernel.AxpyStandardized(acc, blk.Col(j)[lo:hi], c.w[j], c.mean[j], c.std[j])
	}
	for i, s := range acc {
		acc[i] = clampProb(sigmoid(s))
	}
	return nil
}

func sigmoid(v float64) float64 {
	// Guard the exponent to avoid overflow to Inf for extreme margins.
	if v > 35 {
		return 1
	}
	if v < -35 {
		return 0
	}
	return 1 / (1 + math.Exp(-v))
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
