package kernel

import "math"

// The batched kernels below are plain strided float64 loops, unrolled by 4
// where each element's update is independent (unrolling then only reorders
// WHICH element is touched next, never the operations applied to one
// element — the bit-parity contract). None of them allocate; callers own
// and reuse every destination and scratch slice.
//
// The five DWKNN strip kernels have an AVX2 body (strip_amd64.s) where the
// CPU has one. The three element-wise ones — ScaleInto, SquaredDiffInto,
// AddSquaredDiff — run their first len&^3 elements four to an instruction;
// MajorityNearer, the decision's fused distance-minimum-count pass, runs its
// whole groups of four points two groups at a time. Their Go loops finish
// the tail, are the whole body everywhere else, and are what the tests hold
// the assembly to, bit for bit. The fifth, SelectLanes, runs four lanes at a
// time there, and SelectKMin is its tail, its portable body and its oracle.

// VectorWidth is how many float64 the strip kernels process per
// instruction on this CPU: 4 with the AVX2 bodies live, 1 otherwise.
func VectorWidth() int {
	if hasAVX2 {
		return 4
	}
	return 1
}

// ScaleInto writes dst[i] = src[i] / scale. Division — not a precomputed
// reciprocal multiply — because the scalar scoring paths divide, and
// x/s and x*(1/s) differ in the last ulp for general s.
func ScaleInto(dst, src []float64, scale float64) {
	dst = dst[:len(src)]
	n := 0
	if hasAVX2 {
		n = len(src) &^ 3
		scaleIntoAVX2(dst, src, scale)
	}
	scaleIntoGo(dst[n:], src[n:], scale)
}

func scaleIntoGo(dst, src []float64, scale float64) {
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = x / scale
	}
}

// AddSquaredDiff accumulates dst[i] += (v - q[i])² — one dimension's
// contribution to a scaled-L2 distance strip, v being the training row's
// coordinate and q the pre-scaled query column.
func AddSquaredDiff(dst, q []float64, v float64) {
	dst = dst[:len(q)]
	n := 0
	if hasAVX2 {
		n = len(q) &^ 3
		addSquaredDiffAVX2(dst, q, v)
	}
	if n < len(q) { // not inlined, unlike the other two: no tail, no call
		addSquaredDiffGo(dst[n:], q[n:], v)
	}
}

func addSquaredDiffGo(dst, q []float64, v float64) {
	dst = dst[:len(q)]
	i := 0
	for ; i+4 <= len(q); i += 4 {
		d0 := v - q[i]
		d1 := v - q[i+1]
		d2 := v - q[i+2]
		d3 := v - q[i+3]
		dst[i] += d0 * d0
		dst[i+1] += d1 * d1
		dst[i+2] += d2 * d2
		dst[i+3] += d3 * d3
	}
	for ; i < len(q); i++ {
		d := v - q[i]
		dst[i] += d * d
	}
}

// SquaredDiffInto stores dst[i] = (v - q[i])² — the first dimension of a
// distance strip, which then needs no clearing before AddSquaredDiff adds
// the rest: a square is never -0, and 0 + x == x bit for bit otherwise.
func SquaredDiffInto(dst, q []float64, v float64) {
	dst = dst[:len(q)]
	n := 0
	if hasAVX2 {
		n = len(q) &^ 3
		squaredDiffIntoAVX2(dst, q, v)
	}
	squaredDiffIntoGo(dst[n:], q[n:], v)
}

func squaredDiffIntoGo(dst, q []float64, v float64) {
	dst = dst[:len(q)]
	for i, x := range q {
		d := v - x
		dst[i] = d * d
	}
}

// MajorityLevels is how many levels of a need vector MajorityNearer holds:
// per point the vector body keeps that many nearest positive distances and
// that many counts in registers, for two groups of four points at once.
const MajorityLevels = 3

// MajorityNearer decides DWKNN's prefix-minority rule for the w points of a
// staged strip, point i's coordinate d at qs[d*w+i]: it sets bit i&3 of
// masks[i>>2] when, for every level j = 1 … len(need), at least need[j-1]
// rows of neg are strictly nearer point i than its j-th nearest row of pos,
// and clears it when not, writing the ⌈w/4⌉ bytes of masks whole (bits 4-7
// zero). need holds 1 to MajorityLevels levels. pos and neg hold dims >= 1
// coordinates per row, row after row. A distance is the strip's own,
// dimensions ascending: (v − q)², then (v − q)² + acc, exactly what
// SquaredDiffInto and AddSquaredDiff compute. Nearer is the float
// comparison, so a NaN distance is nearer than nothing and never becomes a
// nearest positive: with fewer than j positive rows, or fewer than j
// non-NaN distances to them, the j-th bound is +Inf.
//
// The counts only grow, so the work stops where the answer is known: the Go
// loop leaves a point once it meets every level, the vector body a group of
// four points once all four have. How many rows that takes depends on the
// order of neg; the masks do not.
func MajorityNearer(masks []uint8, qs []float64, w, dims int, pos, neg []float64, need []int) {
	if len(need) < 1 || len(need) > MajorityLevels {
		panic("kernel: MajorityNearer needs 1 to MajorityLevels levels")
	}
	masks, qs = masks[:(w+3)/4], qs[:dims*w]
	npos, nneg := len(pos)/dims, len(neg)/dims
	pos, neg = pos[:npos*dims], neg[:nneg*dims]
	from := 0
	if hasAVX2 {
		from = w &^ 3
		var n [MajorityLevels]int // a missing level needs nothing: always met
		copy(n[:], need)
		majorityNearerAVX2(masks, qs, w, dims, pos, npos, neg, nneg, n[0], n[1], n[2])
	}
	majorityNearerGo(masks, qs, w, dims, from, pos, neg, need)
}

// majorityNearerGo is MajorityNearer for points [from, w), from a multiple
// of 4. It holds the MajorityLevels nearest positive distances and their
// counts in locals, a missing level needing nothing, as the vector body
// does: a distance below the j-th nearest positive is below every later
// one, so one nested test counts it at each level it is nearer than.
func majorityNearerGo(masks []uint8, qs []float64, w, dims, from int, pos, neg []float64, need []int) {
	var n [MajorityLevels]int
	copy(n[:], need)
	n0, n1, n2 := n[0], n[1], n[2]
	for g := from; g < w; g += 4 {
		var m uint8
		for i := g; i < min(g+4, w); i++ {
			// Insert each distance, dropping the farthest; a NaN is below
			// nothing.
			p0, p1, p2 := math.Inf(1), math.Inf(1), math.Inf(1)
			for r := 0; r < len(pos); r += dims {
				d := stripDistance(pos[r:r+dims], qs, w, i)
				if d < p2 {
					if d < p1 {
						p2 = p1
						if d < p0 {
							p0, p1 = d, p0
						} else {
							p1 = d
						}
					} else {
						p2 = d
					}
				}
			}
			c0, c1, c2 := 0, 0, 0
			met := c0 >= n0 && c1 >= n1 && c2 >= n2
			for r := 0; r < len(neg) && !met; r += dims {
				if d := stripDistance(neg[r:r+dims], qs, w, i); d < p2 {
					c2++
					if d < p1 {
						c1++
						if d < p0 {
							c0++
						}
					}
					met = c0 >= n0 && c1 >= n1 && c2 >= n2
				}
			}
			if met {
				m |= 1 << (i - g)
			}
		}
		masks[g/4] = m
	}
}

// stripDistance is the squared distance from a training row to staged point
// i of a strip of width w, in the expression SquaredDiffInto and
// AddSquaredDiff evaluate.
func stripDistance(row, qs []float64, w, i int) float64 {
	d := row[0] - qs[i]
	acc := d * d
	for j := 1; j < len(row); j++ {
		d := row[j] - qs[j*w+i]
		acc = d*d + acc
	}
	return acc
}

// Neighbor is one candidate in a k-smallest selection: a value (squared
// distance) and the index it came from. Ordering is (D2, Idx) ascending —
// a strict total order, so partial selection returns exactly the prefix a
// full stable sort would.
type Neighbor struct {
	Idx int
	D2  float64
}

// Less reports whether (d2, idx) orders strictly before n.
func (n Neighbor) Less(d2 float64, idx int) bool {
	return d2 < n.D2 || (d2 == n.D2 && idx < n.Idx)
}

// SelectKMin scans d2[offset+r*stride] for r in [0, rows) and returns the
// k smallest (value, r) pairs ascending, built by bounded insertion into
// out[:0] (cap(out) must be >= min(k, rows); the returned slice aliases
// out). Because r ascends during the scan, value ties resolve to the
// smaller index with no extra bookkeeping: an equal later candidate never
// displaces an earlier one.
func SelectKMin(d2 []float64, offset, stride, rows, k int, out []Neighbor) []Neighbor {
	out = out[:0]
	for r := 0; r < rows; r++ {
		v := d2[offset+r*stride]
		if len(out) == k {
			if !out[k-1].Less(v, r) {
				continue
			}
			out = out[:k-1]
		}
		// Insert (v, r) keeping out ascending: shift entries the candidate
		// sorts before.
		j := len(out)
		out = append(out, Neighbor{})
		for j > 0 && out[j-1].Less(v, r) {
			out[j] = out[j-1]
			j--
		}
		out[j] = Neighbor{Idx: r, D2: v}
	}
	return out
}

// laneMaxK bounds the lists the vector selection keeps: its cost per row
// grows with k where SelectKMin's does not (a full list rejects in one
// compare), and four lanes' lists at the bound fill a 1 KiB stack array.
const laneMaxK = 16

// SelectLanes selects in every lane of a strip: for each i in [0, w), in
// ascending order, it calls fn(i, SelectKMin(d2, i, w, rows, k, best[:0])).
// The list fn gets aliases best (cap(best) >= min(k, rows)) and is valid
// until fn returns. With AVX2 and 1 <= k <= laneMaxK, lanes go four at a time
// through a compare-and-blend network (strip_amd64.s); the lanes after the
// last whole four, and any lane holding a value outside [+0, +Inf] — a NaN,
// or anything with the sign bit, where bit order and float order part — are
// SelectKMin's own.
func SelectLanes(d2 []float64, w, rows, k int, best []Neighbor, fn func(i int, nb []Neighbor)) {
	i := 0
	if hasAVX2 && rows > 0 && k >= 1 && k <= laneMaxK {
		var lists [8 * laneMaxK]uint64
		vals, idx := lists[:4*k], lists[4*k:8*k]
		nb := best[:min(k, rows)]
		for ; i+4 <= w; i += 4 {
			_ = d2[(rows-1)*w+i+3] // the last four values the body reads
			odd := selectLanesAVX2(d2[i:], w, rows, k, lists[:8*k])
			for l := range 4 {
				if odd>>l&1 != 0 {
					fn(i+l, SelectKMin(d2, i+l, w, rows, k, best[:0]))
					continue
				}
				for j := range nb {
					nb[j] = Neighbor{Idx: int(idx[4*j+l]), D2: math.Float64frombits(vals[4*j+l])}
				}
				fn(i+l, nb)
			}
		}
	}
	for ; i < w; i++ {
		fn(i, SelectKMin(d2, i, w, rows, k, best[:0]))
	}
}
