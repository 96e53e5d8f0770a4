package oracle

import (
	"fmt"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/vec"
)

// Drift describes an interest region that moves as the user labels: the
// mid-session concept shift of an explorer whose idea of "interesting"
// sharpens or wanders while they answer solicitations. The region
// interpolates linearly from From to To (center and half-widths
// independently) over the first Over solicited labels and then stays at
// To. Both endpoints must share dimensionality; Over must be positive so
// the path is well defined.
type Drift struct {
	From Region
	To   Region
	// Over is the number of solicited labels across which the drift
	// completes; labels past Over see the To region.
	Over int
}

// NewDrift validates and builds a drift path.
func NewDrift(from, to Region, over int) (Drift, error) {
	if from.Dims() != to.Dims() {
		return Drift{}, fmt.Errorf("oracle: drift endpoints have %d and %d dims", from.Dims(), to.Dims())
	}
	if over <= 0 {
		return Drift{}, fmt.Errorf("oracle: drift must complete over a positive label count, got %d", over)
	}
	return Drift{From: from, To: to, Over: over}, nil
}

// At returns the interpolated region after `labels` solicited labels.
// Results are deterministic: the same label count always yields the same
// region, so two identically seeded sessions see identical ground truth.
func (d Drift) At(labels int) Region {
	if labels <= 0 {
		return d.From
	}
	if labels >= d.Over {
		return d.To
	}
	t := float64(labels) / float64(d.Over)
	dims := d.From.Dims()
	center := make(vec.Point, dims)
	widths := make(vec.Point, dims)
	for i := 0; i < dims; i++ {
		center[i] = d.From.Center[i] + t*(d.To.Center[i]-d.From.Center[i])
		widths[i] = d.From.Widths[i] + t*(d.To.Widths[i]-d.From.Widths[i])
	}
	return Region{Center: center, Widths: widths}
}

// DriftingOracle simulates a user whose target region moves while they
// label. Membership answers are evaluated against the region at the
// moment of each solicitation (the label count so far), so the label
// sequence for a fixed solicitation order is deterministic. Bootstrap
// seeding uses the initial (From) region — the user shows an example of
// what they wanted when the session began.
type DriftingOracle struct {
	drift Drift
	// initial is the ground truth of the From region, used for seeding.
	initial     *groundTruth
	labelsGiven int
}

// NewDrifting builds a drifting-interest oracle over the dataset. Like
// New, it scans nothing until a seed call needs the initial region's set.
func NewDrifting(ds *dataset.Dataset, d Drift) (*DriftingOracle, error) {
	initial, err := over(ds, d.From)
	if err != nil {
		return nil, err
	}
	return &DriftingOracle{drift: d, initial: initial}, nil
}

// Drift returns the oracle's drift path.
func (o *DriftingOracle) Drift() Drift { return o.drift }

// Current returns the region the next solicitation will be judged
// against.
func (o *DriftingOracle) Current() Region { return o.drift.At(o.labelsGiven) }

// LabelPoint answers a solicitation for the tuple with values x against
// the region at the current label count, then advances the count (and
// with it, the drift).
func (o *DriftingOracle) LabelPoint(x vec.Point) Label {
	r := o.drift.At(o.labelsGiven)
	o.labelsGiven++
	return labelOf(r.Contains(x))
}

// LabelsGiven returns how many labels the simulated user has provided.
func (o *DriftingOracle) LabelsGiven() int { return o.labelsGiven }

// Relevant reports membership in the *initial* region without counting as
// a solicitation.
func (o *DriftingOracle) Relevant(id dataset.RowID) bool { return o.initial.relevant(id) }

// RelevantPoint reports whether the *initial* region holds x, without
// counting as a solicitation; the engine uses it to find an in-pool
// bootstrap seed.
func (o *DriftingOracle) RelevantPoint(x vec.Point) bool { return o.drift.From.Contains(x) }

// SeedRelevant returns the lowest-id tuple of the initial region's ground
// truth (see Oracle.SeedRelevant); ok is false when the region is empty.
func (o *DriftingOracle) SeedRelevant() (id dataset.RowID, row []float64, ok bool, err error) {
	return o.initial.lowest(nil)
}
