package kernel

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func randPoints(rng *rand.Rand, n, dims int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dims)
		for d := range p {
			p[d] = rng.NormFloat64() * 10
		}
		pts[i] = p
	}
	return pts
}

func TestPackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 8, 9, 100} {
		pts := randPoints(rng, n, 3)
		b := Pack(pts)
		if b.N != n || (n > 0 && b.Dims != 3) {
			t.Fatalf("n=%d: got N=%d Dims=%d", n, b.N, b.Dims)
		}
		if b.Stride%blockAlign != 0 || b.Stride < n {
			t.Fatalf("n=%d: bad stride %d", n, b.Stride)
		}
		row := make([]float64, 3)
		for i, p := range pts {
			got := b.Row(i, row)
			for d := range p {
				if math.Float64bits(got[d]) != math.Float64bits(p[d]) {
					t.Fatalf("row %d dim %d: got %v want %v", i, d, got[d], p[d])
				}
				if math.Float64bits(b.Col(d)[i]) != math.Float64bits(p[d]) {
					t.Fatalf("col %d row %d mismatch", d, i)
				}
			}
		}
	}
}

// Keep must leave exactly the block Pack builds from the kept points:
// same stride, same words, zero padding — whatever the overlap between the
// old and the new column positions.
func TestKeepMatchesPackOfSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 8, 9, 100, 1000} {
		for _, keepOneIn := range []int{1, 2, 9, n} {
			pts := randPoints(rng, n, 4)
			var idx []uint32
			var kept [][]float64
			for i, p := range pts {
				if rng.Intn(keepOneIn) == 0 {
					idx = append(idx, uint32(i))
					kept = append(kept, p)
				}
			}
			b := Pack(pts)
			b.Keep(idx)
			want := Pack(kept)
			want.Dims = 4 // Pack of no points cannot know the dimensionality
			if err := b.Check(); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if b.N != want.N || b.Dims != want.Dims || b.Stride != want.Stride || !reflect.DeepEqual(b.Data, want.Data) {
				t.Fatalf("n=%d kept %d: Keep left N=%d Stride=%d, Pack of the subset has N=%d Stride=%d (or the words differ)",
					n, len(idx), b.N, b.Stride, want.N, want.Stride)
			}
		}
	}
}

func TestCheckRejectsInconsistentBlocks(t *testing.T) {
	if err := NewBlock(9, 3).Check(); err != nil {
		t.Fatal(err)
	}
	if err := (&Block{}).Check(); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string]*Block{
		"negative n":        {N: -1, Dims: 1, Stride: 8, Data: make([]float64, 8)},
		"n beyond stride":   {N: 9, Dims: 1, Stride: 8, Data: make([]float64, 8)},
		"short data":        {N: 3, Dims: 2, Stride: 8, Data: make([]float64, 15)},
		"data without dims": {N: 0, Dims: 0, Stride: 8, Data: make([]float64, 8)},
		"wrapping product":  {N: 3, Dims: 4, Stride: 1 << 62, Data: nil},
	} {
		if b.Check() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Each strip kernel must perform bit-identical arithmetic to its scalar
// reference loop.
func TestKernelsBitParity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 37 // odd: exercises the unroll tail
	col := make([]float64, n)
	for i := range col {
		col[i] = rng.NormFloat64() * 5
	}

	t.Run("ScaleInto", func(t *testing.T) {
		scale := 0.37
		dst := make([]float64, n)
		ScaleInto(dst, col, scale)
		for i := range col {
			if math.Float64bits(dst[i]) != math.Float64bits(col[i]/scale) {
				t.Fatalf("i=%d", i)
			}
		}
	})
	t.Run("AddSquaredDiff", func(t *testing.T) {
		v := 1.234567
		dst := make([]float64, n)
		want := make([]float64, n)
		for i := range dst {
			dst[i] = col[i] * 0.1
			want[i] = dst[i]
		}
		AddSquaredDiff(dst, col, v)
		for i := range want {
			d := v - col[i]
			want[i] += d * d
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("i=%d", i)
			}
		}
	})
	t.Run("SquaredDiffInto", func(t *testing.T) {
		// The store form must equal accumulation into a cleared strip, on
		// the values a distance can take: zero differences, overflow to
		// +Inf, and NaNs of both signs (Inf - Inf sets the sign bit on
		// amd64).
		q := append([]float64(nil), col...)
		q[0], q[1], q[2], q[3], q[4] = 1.234567, math.Inf(1), math.Inf(-1), math.NaN(), 1e200
		for _, v := range []float64{1.234567, math.Inf(1), math.NaN(), math.Copysign(math.NaN(), -1), -1e200} {
			dst := make([]float64, n)
			for i := range dst {
				dst[i] = 7 // stale strip contents must not survive
			}
			want := make([]float64, n)
			SquaredDiffInto(dst, q, v)
			AddSquaredDiff(want, q, v)
			for i := range want {
				if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
					t.Fatalf("v=%v i=%d: stored %x, accumulated %x", v, i, math.Float64bits(dst[i]), math.Float64bits(want[i]))
				}
			}
		}
	})
}

// An empty input is a call with nothing to do, for every kernel: no panic,
// no callback, nothing written.
func TestKernelsAcceptEmptyInput(t *testing.T) {
	ScaleInto(nil, nil, 2)
	SquaredDiffInto(nil, nil, 2)
	AddSquaredDiff(nil, nil, 2)
	MajorityNearer(nil, nil, 0, 3, nil, nil, []int{1})
	if nb := SelectKMin(nil, 0, 1, 0, 3, nil); len(nb) != 0 {
		t.Errorf("SelectKMin over no rows: %v", nb)
	}
	SelectLanes(nil, 0, 0, 3, nil, func(i int, _ []Neighbor) { t.Errorf("SelectLanes over no lanes handed over lane %d", i) })
	if !AscendingInto(nil, nil) {
		t.Error("AscendingInto: no values do not ascend")
	}
	Unpack(nil, nil, 7)
	if top := MemberMasks(nil, nil, []uint32{1}, 1); top != 0 {
		t.Errorf("MemberMasks over no ids: largest id %d", top)
	}
}

// MajorityNearer is defined on the strips SquaredDiffInto and
// AddSquaredDiff compute: a point's bit is set when, at every level j of
// need, at least need[j-1] negative rows' distances are below (the float
// compare) the j-th smallest non-NaN positive distance, +Inf when there is
// none. Every value a coordinate can hold — both zeros, a subnormal,
// squares that overflow, both infinities, NaNs with the sign bit clear and
// set — meets every other in queries and training rows alike, at every lane
// position of a pair of groups, a lone group and the Go tail, under 1 to
// MajorityLevels levels.
func TestMajorityNearerMatchesDefinition(t *testing.T) {
	negNaN := math.Copysign(math.NaN(), -1)
	inf := math.Inf(1)
	vals := []float64{0, math.Copysign(0, -1), 5e-324, 1, 1 + 1e-15, 2.5, 1e154, 1e200, inf, -inf, -1, math.NaN(), negNaN, inf - inf}
	rng := rand.New(rand.NewSource(30))
	draw := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = vals[rng.Intn(len(vals))]
		}
		return out
	}
	for trial := 0; trial < 3000; trial++ {
		dims, w := 1+rng.Intn(3), rng.Intn(16)
		npos, nneg := rng.Intn(5), rng.Intn(7)
		need := make([]int, 1+rng.Intn(MajorityLevels))
		for j := range need {
			need[j] = rng.Intn(nneg + 2)
		}
		checkMajorityNearer(t, draw(dims*w), w, dims, draw(npos*dims), draw(nneg*dims), need)
	}
}

// SelectKMin must return exactly the prefix a full sort by (value, index)
// would — including under heavy ties (the all-equidistant case).
func TestSelectKMinMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		rows := 1 + rng.Intn(60)
		k := 1 + rng.Intn(rows+3) // sometimes k > rows
		stride := 1 + rng.Intn(4)
		offset := rng.Intn(stride)
		d2 := make([]float64, offset+rows*stride+3)
		for i := range d2 {
			// Small integer values force many exact ties.
			d2[i] = float64(rng.Intn(5))
		}
		ref := make([]Neighbor, rows)
		for r := 0; r < rows; r++ {
			ref[r] = Neighbor{Idx: r, D2: d2[offset+r*stride]}
		}
		sort.SliceStable(ref, func(i, j int) bool {
			if ref[i].D2 != ref[j].D2 {
				return ref[i].D2 < ref[j].D2
			}
			return ref[i].Idx < ref[j].Idx
		})
		kk := k
		if kk > rows {
			kk = rows
		}
		got := SelectKMin(d2, offset, stride, rows, k, make([]Neighbor, 0, kk))
		if len(got) != kk {
			t.Fatalf("trial %d: got %d want %d", trial, len(got), kk)
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("trial %d: pos %d got %+v want %+v", trial, i, got[i], ref[i])
			}
		}
	}
}
