package learn

import (
	"fmt"
	"math"
	"sync"

	"github.com/uei-db/uei/internal/kernel"
)

// DWKNN is the dual weighted k-nearest-neighbor classifier of Gou et al.,
// "A new distance-weighted k-nearest neighbor classifier" (J. Inf. Comput.
// Sci. 2012), reference [11] of the paper and its chosen uncertainty
// estimator (Table 1).
//
// For a query x with neighbors sorted by distance d1 <= d2 <= ... <= dk, the
// i-th neighbor receives the dual weight
//
//	w_i = (dk - di)/(dk - d1) * (dk + d1)/(dk + di)
//
// with w_i = 1 when dk == d1 (all neighbors equidistant). The positive
// posterior is the normalized positive weight mass. The dual weight combines
// the linear distance-rank weight with a harmonic damping term, which is
// what distinguishes DWKNN from classic distance-weighted k-NN.
type DWKNN struct {
	// K is the neighborhood size. NewDWKNN defaults it to 7.
	K int
	// Scales optionally divides each dimension before computing distances,
	// protecting the metric from dominance by wide-range attributes (e.g.
	// rowc in [0,2048] vs dec in [-90,90]). When nil, Fit derives scales
	// from the training data extent; a caller who knows the full data
	// domain (the IDE engine does) should set it explicitly so scaling does
	// not drift as the labeled set grows — explicit scales are also what
	// lets a NeighborTable carry its lists across retrains.
	Scales []float64

	x      [][]float64 // scaled copies of the training rows
	y      []int
	scales []float64 // effective scales used at fit time
	dims   int
	fitted bool
	finite bool // no scaled training coordinate is NaN or ±Inf (decideStrip)
}

// NewDWKNN returns a DWKNN with neighborhood size k (0 selects the default
// of 7) and optional per-dimension scales.
func NewDWKNN(k int, scales []float64) *DWKNN {
	if k == 0 {
		k = 7
	}
	return &DWKNN{K: k, Scales: scales}
}

// Fit stores a scaled copy of the labeled set; DWKNN is a lazy learner so
// "training" is memorization.
func (c *DWKNN) Fit(X [][]float64, y []int) error {
	dims, err := checkTrainingSet(X, y)
	if err != nil {
		return err
	}
	if c.K <= 0 {
		return fmt.Errorf("learn: DWKNN k = %d must be positive", c.K)
	}
	scales, err := c.effectiveScales(X, dims)
	if err != nil {
		return err
	}
	xs := make([][]float64, len(X))
	c.finite = true
	for i, row := range X {
		s := make([]float64, dims)
		for j, v := range row {
			s[j] = v / scales[j]
			c.finite = c.finite && !math.IsInf(s[j], 0) && !math.IsNaN(s[j])
		}
		xs[i] = s
	}
	c.x = xs
	c.y = append(c.y[:0:0], y...)
	c.scales = scales
	c.dims = dims
	c.fitted = true
	return nil
}

// Fitted reports whether Fit has succeeded.
func (c *DWKNN) Fitted() bool { return c.fitted }

// neighbor pairs a training index with its squared distance to the query.
// It is the kernel package's selection element; ordering is (D2, Idx)
// ascending everywhere.
type neighbor = kernel.Neighbor

// PosteriorPositive returns the dual-weighted positive class probability.
func (c *DWKNN) PosteriorPositive(x []float64) (float64, error) {
	if !c.fitted {
		return 0, ErrNotFitted
	}
	if len(x) != c.dims {
		return 0, fmt.Errorf("learn: query has %d dims, model has %d", len(x), c.dims)
	}
	s := getDWKNNScratch(c)
	defer putDWKNNScratch(s)
	return c.posterior(x, s), nil
}

// BatchPosterior fills out[i] with PosteriorPositive(X[i]) through one
// pooled scratch buffer. Nothing in the program calls it and no interface
// names it: it stays because benchmark/layers.go times it for
// learn.batch_posterior_ns_per_row and a change outside benchmark/ may not
// edit that file; the next benchmark change drops both.
func (c *DWKNN) BatchPosterior(X [][]float64, out []float64) error {
	if !c.fitted {
		return ErrNotFitted
	}
	if len(X) != len(out) {
		return fmt.Errorf("learn: %d queries but %d output slots", len(X), len(out))
	}
	s := getDWKNNScratch(c)
	defer putDWKNNScratch(s)
	for i, x := range X {
		if len(x) != c.dims {
			return fmt.Errorf("learn: query %d has %d dims, model has %d", i, len(x), c.dims)
		}
		out[i] = c.posterior(x, s)
	}
	return nil
}

// dwknnScratch holds the per-call buffers of the k-NN search. Buffers are
// pooled package-wide and grown on demand, so block evaluation allocates
// nothing in steady state.
type dwknnScratch struct {
	q     []float64
	best  []neighbor
	dists []float64
	// Block-path strips, sized lazily: qs holds the scaled query strip
	// (strip*dims) and dist2 the per-row distance strips (strip*len(x)).
	qs    []float64
	dist2 []float64
	// decideStrip's per-point state: the smallest squared distance to a
	// positive row, and how many negative rows are strictly nearer.
	minPos [dwknnStrip]float64
	nearer [dwknnStrip]int32
}

var dwknnScratchPool = sync.Pool{New: func() any { return &dwknnScratch{} }}

func getDWKNNScratch(c *DWKNN) *dwknnScratch {
	s := dwknnScratchPool.Get().(*dwknnScratch)
	k := c.effectiveK()
	if cap(s.q) < c.dims {
		s.q = make([]float64, c.dims)
	}
	if cap(s.best) < k {
		s.best = make([]neighbor, k)
	}
	if cap(s.dists) < k {
		s.dists = make([]float64, k)
	}
	return s
}

func putDWKNNScratch(s *dwknnScratch) { dwknnScratchPool.Put(s) }

func (c *DWKNN) effectiveK() int {
	k := c.K
	if k > len(c.x) {
		k = len(c.x)
	}
	return k
}

// posterior computes the dual-weighted positive posterior for one
// (dimension-checked) query using the caller's scratch.
func (c *DWKNN) posterior(x []float64, s *dwknnScratch) float64 {
	return c.posteriorFrom(c.nearestInto(x, c.effectiveK(), s), s.dists)
}

// posteriorFrom turns a sorted neighbor list into the dual-weighted
// posterior. dists is scratch with cap >= len(nb).
func (c *DWKNN) posteriorFrom(nb []neighbor, dists []float64) float64 {
	// Distances (not squared) drive the weights.
	dists = dists[:len(nb)]
	for i, n := range nb {
		dists[i] = math.Sqrt(n.D2)
	}
	d1, dk := dists[0], dists[len(dists)-1]
	var wPos, wAll float64
	for i, n := range nb {
		w := 1.0
		if dk > d1 {
			w = (dk - dists[i]) / (dk - d1) * (dk + d1) / (dk + dists[i])
		}
		wAll += w
		if c.y[n.Idx] == ClassPositive {
			wPos += w
		}
	}
	if wAll == 0 {
		// Degenerate: dk > d1 makes the farthest neighbor weightless, but
		// the nearest always has weight 1 unless k == 1 and the point
		// coincides; fall back to unweighted vote.
		pos := 0
		for _, n := range nb {
			if c.y[n.Idx] == ClassPositive {
				pos++
			}
		}
		return clampProb(float64(pos) / float64(len(nb)))
	}
	return clampProb(wPos / wAll)
}

// nearestInto returns the k training points closest to x (scaled space),
// sorted by ascending distance with index as tie-breaker for determinism.
// The result aliases s.best and is valid until the next call.
func (c *DWKNN) nearestInto(x []float64, k int, s *dwknnScratch) []neighbor {
	q := s.q[:c.dims]
	for j, v := range x {
		q[j] = v / c.scales[j]
	}
	return c.scan(q, 0, k, s.best[:0])
}

// scan feeds training rows [from, len(x)) to the bounded insertion that
// selects the k rows nearest the scaled query q, continuing from best — the
// sorted list a scan of rows [0, from) ended with (empty for from = 0).
// Selection is bounded insertion into a k-slot buffer — identical output
// to a full sort+truncate ((d², idx) is a strict total order, and indexes
// ascend during the scan so ties never displace an earlier entry) at
// O(n·k) worst case instead of O(n log n). best after row i is the whole
// state of the scan, which is what lets a NeighborTable keep it and resume
// when rows are appended. The result reuses best's storage (cap >= k).
func (c *DWKNN) scan(q []float64, from, k int, best []neighbor) []neighbor {
	for i := from; i < len(c.x); i++ {
		d2 := sqDist(c.x[i], q)
		if len(best) == k {
			if !best[k-1].Less(d2, i) {
				continue
			}
			best = best[:k-1]
		}
		j := len(best)
		best = append(best, neighbor{})
		for j > 0 && best[j-1].Less(d2, i) {
			best[j] = best[j-1]
			j--
		}
		best[j] = neighbor{Idx: i, D2: d2}
	}
	return best
}

// sqDist is the row path's squared distance between a scaled training row
// and a scaled query: dimensions accumulate in ascending order, the one
// expression every DWKNN path must reproduce bit for bit.
func sqDist(row, q []float64) float64 {
	var d2 float64
	for j, v := range row {
		diff := v - q[j]
		d2 += diff * diff
	}
	return d2
}

// dwknnStrip is the block-path strip width: 256 centers × 8 bytes = 16 KiB
// per dimension column, so a strip's scaled queries plus the distance rows
// of a typical labeled set stay L2-resident.
const dwknnStrip = 256

// BlockPosterior implements BlockClassifier over a packed columnar block:
// it scores centers [lo, hi), writing posteriors to out[0:hi-lo].
// Bit-identical to the row path: per (center, row) the squared distance
// accumulates over dimensions in ascending order with the row path's exact
// expressions, and selection shares its (d², idx) order.
func (c *DWKNN) BlockPosterior(blk *kernel.Block, lo, hi int, out []float64) error {
	return c.eachStrip(blk, lo, hi, func(s *dwknnScratch, base, w int) {
		c.scoreStrip(s, w, out[base-lo:])
	})
}

// BlockPositive implements BlockDecider; settled counts the points decided
// without selecting their neighbours.
func (c *DWKNN) BlockPositive(blk *kernel.Block, lo, hi int, out []bool) (settled int, err error) {
	err = c.eachStrip(blk, lo, hi, func(s *dwknnScratch, base, w int) {
		settled += c.decideStrip(s, w, out[base-lo:])
	})
	return settled, err
}

// eachStrip calls fn per strip [base, base+w) of block points [lo, hi), its
// scaled queries staged in s.qs, layout [d*w+i].
func (c *DWKNN) eachStrip(blk *kernel.Block, lo, hi int, fn func(s *dwknnScratch, base, w int)) error {
	if !c.fitted {
		return ErrNotFitted
	}
	if blk.Dims != c.dims {
		return fmt.Errorf("learn: block has %d dims, model has %d", blk.Dims, c.dims)
	}
	s := getDWKNNScratch(c)
	defer putDWKNNScratch(s)
	if cap(s.qs) < c.dims*dwknnStrip || cap(s.dist2) < len(c.x)*dwknnStrip {
		s.qs, s.dist2 = make([]float64, c.dims*dwknnStrip), make([]float64, len(c.x)*dwknnStrip)
	}
	for base := lo; base < hi; base += dwknnStrip {
		w := min(hi-base, dwknnStrip)
		for d := 0; d < c.dims; d++ {
			kernel.ScaleInto(s.qs[d*w:d*w+w], blk.Col(d)[base:base+w], c.scales[d])
		}
		fn(s, base, w)
	}
	return nil
}

// stripDistances fills s.dist2[r*w : r*w+w] with the squared distances from
// training row r to the w staged queries, and returns that strip row.
func (c *DWKNN) stripDistances(s *dwknnScratch, r, w int) []float64 {
	dr := s.dist2[r*w : r*w+w]
	row := c.x[r]
	kernel.SquaredDiffInto(dr, s.qs[:w], row[0])
	for d := 1; d < len(row); d++ {
		kernel.AddSquaredDiff(dr, s.qs[d*w:d*w+w], row[d])
	}
	return dr
}

// scoreStrip computes posteriors for the w centers whose scaled queries are
// staged in s.qs, writing out[0:w].
func (c *DWKNN) scoreStrip(s *dwknnScratch, w int, out []float64) {
	for r := range c.x {
		c.stripDistances(s, r, w)
	}
	k := c.effectiveK()
	for i := 0; i < w; i++ {
		out[i] = c.posteriorFrom(kernel.SelectKMin(s.dist2, i, w, len(c.x), k, s.best[:0]), s.dists)
	}
}

// decideStrip decides the w staged centers against the threshold, writing
// out[0:w], and returns how many it settled without a selection: a center
// with a majority of its k neighbours — n > k/2 negative rows — strictly
// nearer than its nearest positive row is negative. Those rows hold the
// first n ranks of the (d², idx) order under any tie-break, at most k-n < n
// positives follow, and posteriorFrom's weight does not increase with rank,
// so the posterior is at most (k-n)/k <= 1/2 - 1/(2k). Every other center
// is selected, on the distances already in the strip. The ranks need a
// total order and a NaN distance is below and above nothing, so next to a
// non-finite training row no count is a majority (DESIGN.md §17).
func (c *DWKNN) decideStrip(s *dwknnScratch, w int, out []bool) (settled int) {
	minPos, nearer := s.minPos[:w], s.nearer[:w]
	for i := range minPos {
		minPos[i], nearer[i] = math.Inf(1), 0
	}
	for r, label := range c.y {
		if label == ClassPositive {
			for i, v := range c.stripDistances(s, r, w) {
				if v < minPos[i] {
					minPos[i] = v
				}
			}
		}
	}
	for r, label := range c.y {
		if label != ClassPositive {
			kernel.CountBelow(nearer, c.stripDistances(s, r, w), minPos)
		}
	}
	k := c.effectiveK()
	majority := k/2 + 1
	if !c.finite {
		majority = len(c.x) + 1
	}
	for i, n := range nearer {
		if int(n) >= majority {
			out[i] = false
			settled++
			continue
		}
		out[i] = positive(c.posteriorFrom(kernel.SelectKMin(s.dist2, i, w, len(c.x), k, s.best[:0]), s.dists))
	}
	return settled
}

// effectiveScales resolves the scaling vector used for the current fit.
func (c *DWKNN) effectiveScales(X [][]float64, dims int) ([]float64, error) {
	if c.Scales != nil {
		if len(c.Scales) != dims {
			return nil, fmt.Errorf("learn: %d scales for %d dims", len(c.Scales), dims)
		}
		out := make([]float64, dims)
		for j, s := range c.Scales {
			if s <= 0 {
				return nil, fmt.Errorf("learn: scale %d = %g must be positive", j, s)
			}
			out[j] = s
		}
		return out, nil
	}
	// Derive from training extent; degenerate dimensions get scale 1.
	out := make([]float64, dims)
	for j := 0; j < dims; j++ {
		lo, hi := X[0][j], X[0][j]
		for _, row := range X {
			if row[j] < lo {
				lo = row[j]
			}
			if row[j] > hi {
				hi = row[j]
			}
		}
		if hi > lo {
			out[j] = hi - lo
		} else {
			out[j] = 1
		}
	}
	return out, nil
}
