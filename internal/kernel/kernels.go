package kernel

import "math"

// The batched kernels below are plain strided float64 loops, unrolled by 4
// where each element's update is independent (unrolling then only reorders
// WHICH element is touched next, never the operations applied to one
// element — the bit-parity contract). None of them allocate; callers own
// and reuse every destination and scratch slice.
//
// The four element-wise DWKNN strip kernels — AddSquaredDiff,
// SquaredDiffInto, CountBelow, MinInto — run their first len&^3 elements
// four to an instruction where the CPU has AVX2 (strip_amd64.s). Their Go
// loops finish the tail, are the whole body everywhere else, and are what
// the tests hold the assembly to, bit for bit. The fifth, SelectLanes, runs
// four lanes at a time there, and SelectKMin is its tail, its portable body
// and its oracle.

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
	_ = dst[len(src)-1]
	i := 0
	for ; i+4 <= len(src); i += 4 {
		dst[i] = src[i] / scale
		dst[i+1] = src[i+1] / scale
		dst[i+2] = src[i+2] / scale
		dst[i+3] = src[i+3] / scale
	}
	for ; i < len(src); i++ {
		dst[i] = src[i] / scale
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

// CountBelow increments cnt[i] where v[i] < thr[i] — the float comparison
// exactly, so a NaN of either sign on either side counts nothing. The
// outcome is added, not jumped on (the compiler sets b from the flags): over
// distances it is as good as random, and a mispredicted jump costs more.
func CountBelow(cnt []int32, v, thr []float64) {
	cnt, thr = cnt[:len(v)], thr[:len(v)]
	n := 0
	if hasAVX2 {
		n = len(v) &^ 3
		countBelowAVX2(cnt, v, thr)
	}
	countBelowGo(cnt[n:], v[n:], thr[n:])
}

func countBelowGo(cnt []int32, v, thr []float64) {
	cnt, thr = cnt[:len(v)], thr[:len(v)]
	for i, x := range v {
		var b int32
		if x < thr[i] {
			b = 1
		}
		cnt[i] += b
	}
}

// MinInto lowers m[i] to v[i] where v[i] < m[i] — the float comparison
// exactly, so a NaN of either sign on either side, or a zero meeting a zero,
// leaves m[i] as it was: a running minimum over strip rows, such as each
// point's nearest positive.
func MinInto(m, v []float64) {
	m = m[:len(v)]
	n := 0
	if hasAVX2 {
		n = len(v) &^ 3
		minIntoAVX2(m, v)
	}
	minIntoGo(m[n:], v[n:])
}

func minIntoGo(m, v []float64) {
	m = m[:len(v)]
	for i, x := range v {
		if x < m[i] {
			m[i] = x
		}
	}
}

// AxpyStandardized accumulates dst[i] += w * (col[i] - mean) / std — one
// dimension of a standardized logistic dot-product. The multiply-then-
// divide order matches the scalar path exactly.
func AxpyStandardized(dst, col []float64, w, mean, std float64) {
	_ = dst[len(col)-1]
	i := 0
	for ; i+4 <= len(col); i += 4 {
		dst[i] += w * (col[i] - mean) / std
		dst[i+1] += w * (col[i+1] - mean) / std
		dst[i+2] += w * (col[i+2] - mean) / std
		dst[i+3] += w * (col[i+3] - mean) / std
	}
	for ; i < len(col); i++ {
		dst[i] += w * (col[i] - mean) / std
	}
}

// AddGaussianLL accumulates dst[i] += logTerm - d*d/twoVar with
// d = col[i] - mean — one dimension of a Gaussian log-likelihood, where
// the caller precomputed logTerm = -0.5*log(2π·var) and twoVar = 2·var
// (both pure functions of the variance, so precomputing them changes no
// bits; the per-element expression is the scalar path's verbatim).
func AddGaussianLL(dst, col []float64, mean, logTerm, twoVar float64) {
	_ = dst[len(col)-1]
	i := 0
	for ; i+4 <= len(col); i += 4 {
		d0 := col[i] - mean
		d1 := col[i+1] - mean
		d2 := col[i+2] - mean
		d3 := col[i+3] - mean
		dst[i] += logTerm - d0*d0/twoVar
		dst[i+1] += logTerm - d1*d1/twoVar
		dst[i+2] += logTerm - d2*d2/twoVar
		dst[i+3] += logTerm - d3*d3/twoVar
	}
	for ; i < len(col); i++ {
		d := col[i] - mean
		dst[i] += logTerm - d*d/twoVar
	}
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
