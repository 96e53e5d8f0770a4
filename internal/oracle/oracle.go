package oracle

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/vec"
)

// Label is a binary relevance label, matching the paper's "Label Type:
// Binary" parameter (Table 1).
type Label int8

const (
	// Negative marks an irrelevant tuple.
	Negative Label = 0
	// Positive marks a relevant tuple.
	Positive Label = 1
)

// String renders the label for logs and test failures.
func (l Label) String() string {
	switch l {
	case Negative:
		return "negative"
	case Positive:
		return "positive"
	default:
		return fmt.Sprintf("Label(%d)", int8(l))
	}
}

// Oracle simulates the user (§4.1): it answers every solicitation with the
// target's range query applied to the row in question. The ground-truth
// set over the whole dataset ("we rely on this oracle set") is built only
// when a question needs all of it — RelevantCount, SeedRelevant,
// SeedRelevantIn — with the same predicate.
type Oracle struct {
	region Region
	// targets is the full (possibly multi-region) target union; empty for
	// single-region oracles built with New.
	targets MultiRegion
	// truth holds the membership predicate — the region or the union of
	// regions — and the lazily built set.
	truth *groundTruth
}

// New builds an oracle for the given region over the given dataset. It
// scans nothing; see Oracle.
func New(ds *dataset.Dataset, region Region) (*Oracle, error) {
	truth, err := over(ds, region)
	if err != nil {
		return nil, err
	}
	return &Oracle{region: region, truth: truth}, nil
}

// NewDeferred builds an oracle for the given region whose dataset is
// produced by load, called at most once and only when a question needs it:
// a whole-set call, or Relevant. Labels and RelevantPoint never call it.
// When load fails — or returns a dataset of another dimensionality — the
// seed calls return the error, and RelevantCount and Relevant answer as
// for an empty dataset.
func NewDeferred(region Region, load func() (*dataset.Dataset, error)) *Oracle {
	return &Oracle{region: region, truth: &groundTruth{target: region, load: load}}
}

// Region returns the target region the oracle answers for.
func (o *Oracle) Region() Region { return o.region }

// RelevantCount returns the size of the ground-truth set, building it on
// the first call.
func (o *Oracle) RelevantCount() int { return o.truth.count() }

// Relevant reports ground-truth membership for a tuple id. It is not a
// label solicitation (it serves accuracy evaluation, not exploration).
func (o *Oracle) Relevant(id dataset.RowID) bool { return o.truth.relevant(id) }

// RelevantPoint reports whether the target accepts x. It is not a label
// solicitation.
func (o *Oracle) RelevantPoint(x vec.Point) bool { return o.truth.target.Contains(x) }

// LabelPoint answers a label solicitation for the tuple with values x.
// The oracle is read-only: each session counts its own solicitations.
func (o *Oracle) LabelPoint(x vec.Point) Label {
	return labelOf(o.RelevantPoint(x))
}

func labelOf(relevant bool) Label {
	if relevant {
		return Positive
	}
	return Negative
}

// SeedRelevant returns one relevant tuple — the lowest-id member of the
// ground-truth set — modeling the standard IDE bootstrap where the user
// shows one example of what they are looking for. The returned row is a
// copy. ok is false when the target holds no tuple; err is the load error
// of a NewDeferred oracle. It is not a solicitation: the caller labels the
// tuple through LabelPoint as usual.
func (o *Oracle) SeedRelevant() (id dataset.RowID, row []float64, ok bool, err error) {
	return o.truth.lowest(nil)
}

// SeedRelevantIn returns the lowest-id relevant tuple inside the given
// region, for multi-region bootstraps where the user shows one example per
// interest. Like SeedRelevant, it is not a solicitation.
func (o *Oracle) SeedRelevantIn(r Region) (id dataset.RowID, row []float64, ok bool, err error) {
	return o.truth.lowest(r.Contains)
}

// SizeClass names the paper's three region-cardinality classes.
type SizeClass string

const (
	// Small targets 0.1% of the dataset.
	Small SizeClass = "small"
	// Medium targets 0.4% of the dataset.
	Medium SizeClass = "medium"
	// Large targets 0.8% of the dataset.
	Large SizeClass = "large"
)

// Fraction returns the target selectivity of the class (Table 1).
func (c SizeClass) Fraction() (float64, error) {
	switch c {
	case Small:
		return 0.001, nil
	case Medium:
		return 0.004, nil
	case Large:
		return 0.008, nil
	default:
		return 0, fmt.Errorf("oracle: unknown size class %q", c)
	}
}

// FindRegion synthesizes a target region whose selectivity is close to the
// requested fraction. It seeds candidate centers on actual data points (so
// regions land where data exists, as real user interests do), then binary
// searches an isotropic scale factor on the per-dimension half-widths until
// the cardinality is within tol (relative) of the target. It returns the
// best region found across maxSeeds attempts.
func FindRegion(ds *dataset.Dataset, fraction, tol float64, seed int64, maxSeeds int) (Region, error) {
	if ds.Len() == 0 {
		return Region{}, fmt.Errorf("oracle: cannot place a region in an empty dataset")
	}
	if fraction <= 0 || fraction >= 1 {
		return Region{}, fmt.Errorf("oracle: fraction %g outside (0,1)", fraction)
	}
	if tol <= 0 {
		return Region{}, fmt.Errorf("oracle: tolerance %g must be positive", tol)
	}
	if maxSeeds <= 0 {
		maxSeeds = 8
	}
	bounds, err := ds.Bounds()
	if err != nil {
		return Region{}, err
	}
	domainWidths := bounds.Widths()
	target := fraction * float64(ds.Len())
	if target < 1 {
		return Region{}, fmt.Errorf("oracle: fraction %g selects under one tuple of %d", fraction, ds.Len())
	}

	rng := rand.New(rand.NewSource(seed))
	var best Region
	bestErr := math.Inf(1)
	for attempt := 0; attempt < maxSeeds; attempt++ {
		center := ds.CopyRow(dataset.RowID(rng.Intn(ds.Len())))
		// Base half-width: the width a uniform dataset would need, per
		// dimension, to capture `fraction` of the data. Clusters shrink it.
		base := make(vec.Point, ds.Dims())
		for i := range base {
			w := domainWidths[i] * math.Pow(fraction, 1/float64(ds.Dims()))
			if w <= 0 {
				w = 1
			}
			base[i] = w / 2
		}
		r, relErr := calibrate(ds, center, base, target)
		if relErr < bestErr {
			best, bestErr = r, relErr
			if bestErr <= tol {
				return best, nil
			}
		}
	}
	if math.IsInf(bestErr, 1) {
		return Region{}, fmt.Errorf("oracle: failed to synthesize a region for fraction %g", fraction)
	}
	return best, nil
}

// calibrate binary-searches a scale on the half-widths so the region's
// cardinality approaches target. It returns the calibrated region and the
// relative cardinality error achieved.
func calibrate(ds *dataset.Dataset, center, base vec.Point, target float64) (Region, float64) {
	scaled := func(s float64) Region {
		w := make(vec.Point, len(base))
		for i := range w {
			w[i] = base[i] * s
		}
		r, err := NewRegion(center, w)
		if err != nil {
			panic(err) // unreachable: base widths are positive
		}
		return r
	}
	lo, hi := 1e-4, 1.0
	// Grow hi until the region overshoots the target or saturates.
	for i := 0; i < 40; i++ {
		if float64(scaled(hi).Cardinality(ds)) >= target {
			break
		}
		hi *= 2
	}
	var best Region
	bestErr := math.Inf(1)
	for i := 0; i < 48; i++ {
		mid := (lo + hi) / 2
		r := scaled(mid)
		card := float64(r.Cardinality(ds))
		relErr := math.Abs(card-target) / target
		if relErr < bestErr {
			best, bestErr = r, relErr
		}
		if card == target {
			break
		}
		if card < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return best, bestErr
}
