package learn

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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

	x      [][]float64 // scaled copies of the training rows, views into pos and neg
	y      []int
	pos    []float64 // the scaled positive rows in training order, row after row
	neg    []float64 // the scaled negative rows, likewise
	scales []float64 // effective scales used at fit time
	dims   int
	fitted bool
	finite bool // no scaled training coordinate is NaN or ±Inf (decideStrip)
	settle *settleRows
}

// settleRows holds decideStrip's negatives in settle order, laid out on the
// first decision after a Fit.
type settleRows struct {
	once sync.Once
	neg  []float64
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
	// The scaled rows live in one array, by class in training order — pos
	// and neg, decideStrip's operands — and x indexes them in training order.
	npos := 0
	for _, label := range y {
		if label == ClassPositive {
			npos++
		}
	}
	buf := make([]float64, len(X)*dims)
	c.pos, c.neg = buf[:npos*dims:npos*dims], buf[npos*dims:]
	xs := make([][]float64, len(X))
	ip, in := 0, 0
	c.finite = true
	for i, row := range X {
		var s []float64
		if y[i] == ClassPositive {
			s, ip = c.pos[ip:ip+dims:ip+dims], ip+dims
		} else {
			s, in = c.neg[in:in+dims:in+dims], in+dims
		}
		for j, v := range row {
			s[j] = v / scales[j]
			c.finite = c.finite && !math.IsInf(s[j], 0) && !math.IsNaN(s[j])
		}
		xs[i] = s
	}
	c.x = xs
	c.settle = &settleRows{}
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
	// decideStrip's per-point state: the settled masks, four points a byte;
	// then the points left open and their queries, gathered side by side
	// (dims columns of u, u the open count rounded up to a multiple of 4),
	// whose distance rows go to dist2 at width u.
	settled [dwknnStrip / 4]uint8
	open    [dwknnStrip]uint8
	qo      []float64
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
		s.qs, s.qo = make([]float64, c.dims*dwknnStrip), make([]float64, c.dims*dwknnStrip)
		s.dist2 = make([]float64, len(c.x)*dwknnStrip)
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

// stripDistances fills dist2[r*w : r*w+w] with the squared distances from
// every training row r to the w queries staged in qs, layout [d*w+i].
func (c *DWKNN) stripDistances(dist2, qs []float64, w int) {
	for r, row := range c.x {
		dr := dist2[r*w : r*w+w]
		kernel.SquaredDiffInto(dr, qs[:w], row[0])
		for d := 1; d < len(row); d++ {
			kernel.AddSquaredDiff(dr, qs[d*w:d*w+w], row[d])
		}
	}
}

// scoreStrip computes posteriors for the w centers whose scaled queries are
// staged in s.qs, writing out[0:w].
func (c *DWKNN) scoreStrip(s *dwknnScratch, w int, out []float64) {
	c.stripDistances(s.dist2, s.qs, w)
	kernel.SelectLanes(s.dist2, w, len(c.x), c.effectiveK(), s.best, func(i int, nb []neighbor) {
		out[i] = c.posteriorFrom(nb, s.dists)
	})
}

// decideStrip decides the w staged centers against the threshold, writing
// out[0:w], and returns how many it settled without a selection: a center
// is negative when, at every level j of settleNeed(k), at least need_j
// negative rows are strictly nearer than its j-th nearest positive row.
// Those negatives hold ranks before that positive in the (d², idx) order
// under any tie-break, so no prefix of the k ranks is half positive, and
// posteriorFrom's weight does not increase with rank, so the posterior is
// at most the largest prefix share, <= 1/2 - 1/(2k) (DESIGN.md §17). One
// MajorityNearer pass decides it; every other center is selected, its query
// gathered beside the other open ones so that only their distances are
// computed and the selection runs over open points only. The ranks need a
// total order and a NaN distance is below and above nothing, so next to a
// non-finite training row nothing settles.
func (c *DWKNN) decideStrip(s *dwknnScratch, w int, out []bool) (settled int) {
	k := c.effectiveK()
	var levels [kernel.MajorityLevels]int
	need := settleNeed(k, levels[:0])
	masks := s.settled[:(w+3)/4]
	if c.finite && need[len(need)-1] <= len(c.neg)/c.dims {
		kernel.MajorityNearer(masks, s.qs[:c.dims*w], w, c.dims, c.pos, c.settleNegatives(), need)
	} else {
		clear(masks) // fewer negative rows than the last level needs: nothing settles
	}
	// Every index is written and only an open one is kept (n advances past
	// it): the mask bit, as good as random, is added and not jumped on.
	n := 0
	for i := range w {
		out[i] = false
		s.open[n] = uint8(i)
		n += 1 - int(masks[i>>2]>>(i&3)&1)
	}
	open := s.open[:n]
	// The open queries side by side, padded with zeros to whole groups of
	// four: the selection's vector body then has no lane left over.
	u := (n + 3) &^ 3
	qo := s.qo[:c.dims*u]
	for d := range c.dims {
		src, dst := s.qs[d*w:d*w+w], qo[d*u:d*u+u]
		for j, i := range open {
			dst[j] = src[i]
		}
		clear(dst[n:])
	}
	c.stripDistances(s.dist2, qo, u)
	kernel.SelectLanes(s.dist2[:len(c.x)*u], u, len(c.x), k, s.best, func(j int, nb []neighbor) {
		if j < n {
			out[open[j]] = positive(c.posteriorFrom(nb, s.dists))
		}
	})
	return w - n
}

// settleNegatives returns the negative rows in settle order: nearest first,
// in scaled distance, to the centre of the training rows' bounding box
// (ties in training order). MajorityNearer reads them in that order and
// stops a group of four points once all four are settled; the answer does
// not depend on the order, but how many rows it reads does, and a central
// negative is nearer than a point's positives for more of the space than
// an outlying one.
func (c *DWKNN) settleNegatives() []float64 {
	s := c.settle
	s.once.Do(func() {
		mid := make([]float64, c.dims)
		for j := range mid {
			lo, hi := c.x[0][j], c.x[0][j]
			for _, row := range c.x {
				lo, hi = min(lo, row[j]), max(hi, row[j])
			}
			mid[j] = lo/2 + hi/2
		}
		n := len(c.neg) / c.dims
		order, key := make([]int, n), make([]float64, n)
		for r := range order {
			order[r], key[r] = r, sqDist(c.neg[r*c.dims:r*c.dims+c.dims], mid)
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(key[a], key[b]) })
		s.neg = make([]float64, 0, len(c.neg))
		for _, r := range order {
			s.neg = append(s.neg, c.neg[r*c.dims:r*c.dims+c.dims]...)
		}
	})
	return s.neg
}

// settleNeed appends to need decideStrip's need vector for k neighbours:
// level j asks for need_j = min(j+1, k+1-j) negatives before the j-th
// positive, which is j+1 up to j = ⌊k/2⌋ — the levels after it need no more
// than that one and follow from it. Levels past the kernel's are folded into
// its last, which takes the largest need among them, ⌊k/2⌋+1: that only
// settles fewer.
func settleNeed(k int, need []int) []int {
	levels := max(1, min(k/2, kernel.MajorityLevels))
	for j := range levels - 1 {
		need = append(need, j+2)
	}
	return append(need, k/2+1)
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
