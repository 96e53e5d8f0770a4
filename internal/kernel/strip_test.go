package kernel

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// stripPalette is every kind of value a strip kernel can meet: normals
// (two of them square to +Inf), subnormals, both zeros, both infinities, and
// NaNs of both signs with distinct payloads, quiet and signalling.
var stripPalette = []uint64{
	math.Float64bits(1.5), math.Float64bits(-2.25), math.Float64bits(1e-3), math.Float64bits(3e7),
	math.Float64bits(1.0000000000000002), math.Float64bits(1e200), math.Float64bits(-1e200),
	0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x8000000000000001,
	0x0000000000000000, 0x8000000000000000,
	0x7FF0000000000000, 0xFFF0000000000000,
	0x7FF8000000000001, 0xFFF8000000000002, 0x7FF80000000ABCDE, 0xFFF8000000012345,
	0x7FF0000000000001, 0xFFF0000000000003,
}

const (
	canary64 = 0xDEADBEEFCAFEF00D
	canary8  = 0xA5
)

// guarded returns a copy of vals placed off+1 words into a backing array
// whose every other word is a canary, capacity clipped to the copy.
func guarded(vals []uint64, off int) (back, s []float64) {
	back = make([]float64, 1+off+len(vals)+4)
	for i := range back {
		back[i] = math.Float64frombits(canary64)
	}
	s = back[1+off : 1+off+len(vals) : 1+off+len(vals)]
	for i, b := range vals {
		s[i] = math.Float64frombits(b)
	}
	return back, s
}

// sameBits fails unless got holds exactly want and the words of back
// outside got (which starts 1+off words in) are still canaries.
func sameBits(t testing.TB, what string, off int, back, got []float64, want []uint64) {
	t.Helper()
	for i, w := range want {
		if g := math.Float64bits(got[i]); g != w {
			t.Fatalf("%s: n=%d off=%d i=%d: got %016x, want %016x", what, len(want), off, i, g, w)
		}
	}
	for i, x := range back {
		if (i < 1+off || i >= 1+off+len(want)) && math.Float64bits(x) != canary64 {
			t.Fatalf("%s: n=%d off=%d: wrote backing word %d, outside the slice", what, len(want), off, i)
		}
	}
}

// checkStripKernels holds the three element-wise strip kernels to their Go
// loops on one input: acc is the strip before the call (the accumulator, the
// stale contents), term the query column (the values to scale), vbits the
// training coordinate (the scale), both slices placed at unaligned offsets.
// The exported kernel must equal the Go loop over the whole length. With the
// AVX2 bodies live, the assembly is also called on its own: the first len&^3
// elements must equal the Go loop's and the tail must be left as it was.
func checkStripKernels(t testing.TB, off int, acc, term []uint64, vbits uint64) {
	t.Helper()
	n, v := len(acc), math.Float64frombits(vbits)
	vec := n &^ 3 // what a vector body covers
	bitsOf := func(s []float64) []uint64 {
		out := make([]uint64, len(s))
		for i, x := range s {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	_, q := guarded(term, 3-off)

	for _, k := range []struct {
		name           string
		portable, full func(dst, q []float64, v float64)
		vector         func(dst, q []float64, v float64)
	}{
		{"ScaleInto", scaleIntoGo, ScaleInto, scaleIntoAVX2},
		{"AddSquaredDiff", addSquaredDiffGo, AddSquaredDiff, addSquaredDiffAVX2},
		{"SquaredDiffInto", squaredDiffIntoGo, SquaredDiffInto, squaredDiffIntoAVX2},
	} {
		_, ref := guarded(acc, 0)
		k.portable(ref, q, v)
		want := bitsOf(ref)

		back, dst := guarded(acc, off)
		k.full(dst, q, v)
		sameBits(t, k.name, off, back, dst, want)

		if hasAVX2 {
			back, dst = guarded(acc, off)
			k.vector(dst, q, v)
			sameBits(t, k.name+" (vector body alone)", off, back, dst, append(want[:vec:vec], acc[vec:]...))
		}
	}
}

// The assembly against its adversaries: every length 0..70 (whole blocks
// and tails of 0-3), every start offset 0..3 (unaligned heads, a canary
// word on both sides), every palette value as v — ±0, subnormals and NaN
// payloads as a scale too — accumulator and term drawn from the palette so
// that NaNs meet NaNs, infinities and each other in both operand positions.
func TestVectorKernelsMatchPortable(t *testing.T) {
	if VectorWidth() != 4 {
		t.Skip("this CPU has no AVX2: the Go loops are the whole of each strip kernel, there is no vector body to compare")
	}
	rng := rand.New(rand.NewSource(24))
	draw := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = stripPalette[rng.Intn(len(stripPalette))]
		}
		return out
	}
	for n := 0; n <= 70; n++ {
		for off := 0; off <= 3; off++ {
			for _, vbits := range stripPalette {
				checkStripKernels(t, off, draw(n), draw(n), vbits)
			}
		}
	}
}

// FuzzStripKernels reads bytes as (offset, v, pairs of bit patterns) — the
// length is however many whole pairs there are, up to 96 — and holds the
// kernels to their Go loops on them. Raw bytes rarely spell a NaN, an
// infinity or a subnormal, so mutation starts from the committed corpus under
// testdata/fuzz/, which does.
func FuzzStripKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		off, vbits, data := int(data[0]&3), binary.LittleEndian.Uint64(data[1:9]), data[9:]
		n := min(len(data)/16, 96)
		acc, term := make([]uint64, n), make([]uint64, n)
		for i := range acc {
			acc[i] = binary.LittleEndian.Uint64(data[16*i:])
			term[i] = binary.LittleEndian.Uint64(data[16*i+8:])
		}
		checkStripKernels(t, off, acc, term, vbits)
	})
}

// majorityReference is MajorityNearer's definition, on the distance strips
// SquaredDiffInto and AddSquaredDiff compute: level j's bound is the j-th
// smallest of a point's non-NaN positive distances, found by sorting them
// (+Inf past the last), and every negative row is counted against every
// bound by `<`, with no exit. reach[i] is how many negative rows point i
// reads before it meets every level: 0 when need asks for nothing, nneg+1
// when it never does.
func majorityReference(qs []float64, w, dims int, pos, neg []float64, need []int) (masks []uint8, reach []int) {
	strip := func(row []float64) []float64 {
		d2 := make([]float64, w)
		SquaredDiffInto(d2, qs[:w], row[0])
		for d := 1; d < dims; d++ {
			AddSquaredDiff(d2, qs[d*w:d*w+w], row[d])
		}
		return d2
	}
	bounds := make([][]float64, w)
	for r := 0; r < len(pos)/dims; r++ {
		for i, d := range strip(pos[r*dims : r*dims+dims]) {
			if !math.IsNaN(d) {
				bounds[i] = append(bounds[i], d)
			}
		}
	}
	for i := range bounds {
		slices.Sort(bounds[i])
		for len(bounds[i]) < len(need) {
			bounds[i] = append(bounds[i], math.Inf(1))
		}
	}
	nneg := len(neg) / dims
	count, reach := make([][]int, w), make([]int, w)
	met := func(i int) bool {
		for j, n := range need {
			if count[i][j] < n {
				return false
			}
		}
		return true
	}
	for i := range reach {
		count[i] = make([]int, len(need))
		reach[i] = nneg + 1
		if met(i) {
			reach[i] = 0
		}
	}
	for r := 0; r < nneg; r++ {
		for i, d := range strip(neg[r*dims : r*dims+dims]) {
			for j := range need {
				if d < bounds[i][j] {
					count[i][j]++
				}
			}
			if reach[i] > nneg && met(i) {
				reach[i] = r + 1
			}
		}
	}
	masks = make([]uint8, (w+3)/4)
	for i := range count {
		if met(i) {
			masks[i/4] |= 1 << (i % 4)
		}
	}
	return masks, reach
}

// checkMajorityNearer holds MajorityNearer to its definition on one strip:
// the Go loop over every point, the exported kernel into masks with canary
// bytes on both sides, and — with the AVX2 body live — the body alone, its
// missing levels passed as 0, which must write exactly the bytes of the
// whole groups and leave the tail's as it was. None may write to its
// inputs. It returns the definition's reach.
func checkMajorityNearer(t testing.TB, qs []float64, w, dims int, pos, neg []float64, need []int) []int {
	t.Helper()
	want, reach := majorityReference(qs, w, dims, pos, neg, need)
	inputs := append(append(slices.Clone(qs), pos...), neg...)
	npos, nneg := len(pos)/dims, len(neg)/dims
	same := func(what string, back []uint8, upto int) {
		t.Helper()
		got := back[1 : 1+len(want)]
		for i := range min(w, 4*upto) {
			if g, x := got[i/4]>>(i%4)&1, want[i/4]>>(i%4)&1; g != x {
				t.Fatalf("%s: w=%d dims=%d npos=%d nneg=%d need=%v: point %d got %d, want %d (it meets every level after %d negative rows)",
					what, w, dims, npos, nneg, need, i, g, x, reach[i])
			}
		}
		for j, b := range back {
			inside := j >= 1 && j < 1+upto
			if !inside && b != canary8 {
				t.Fatalf("%s: w=%d dims=%d: wrote mask byte %d of %d", what, w, dims, j-1, upto)
			}
			if inside && b>>4 != 0 {
				t.Fatalf("%s: w=%d dims=%d: mask byte %d is %#x, bits 4-7 set", what, w, dims, j-1, b)
			}
		}
	}
	canaried := func() (back, masks []uint8) {
		back = make([]uint8, 1+len(want)+4)
		for i := range back {
			back[i] = canary8
		}
		return back, back[1 : 1+len(want) : 1+len(want)]
	}

	back, masks := canaried()
	majorityNearerGo(masks, qs, w, dims, 0, pos, neg, need)
	same("Go loop", back, len(want))

	back, masks = canaried()
	MajorityNearer(masks, qs, w, dims, pos, neg, need)
	same("MajorityNearer", back, len(want))

	if hasAVX2 {
		back, masks = canaried()
		var n [MajorityLevels]int
		copy(n[:], need)
		majorityNearerAVX2(masks, qs, w, dims, pos, npos, neg, nneg, n[0], n[1], n[2])
		same("vector body alone", back, w/4)
	}
	for i, x := range append(append(slices.Clone(qs), pos...), neg...) {
		if math.Float64bits(x) != math.Float64bits(inputs[i]) {
			t.Fatalf("w=%d dims=%d: input word %d changed", w, dims, i)
		}
	}
	return reach
}

// The fused majority pass against its Go loop and its definition: every
// width 0-19 and 256 (pairs of groups, a lone group and a tail of 1-3, alone
// and together), every dims 1-9, on rows and queries from the integer
// lattice — where a negative at exactly a level's positive distance is
// common — with no positive row, fewer positives than levels, fewer
// negatives than the largest need, the single level 1 and one past every
// row, DWKNN's rule at K = 7 and 16 (2, 3, 4 and, folded, 2, 3, 9),
// decreasing and zero needs, NaNs of both signs and ±Inf in query lanes,
// non-finite training coordinates (a NaN positive, last in its class or
// after finite ones, must not enter a slot), and mirrored rows: a negative that is a positive with its
// first two coordinates swapped, at a query whose coordinates are all equal,
// ties that positive only if no multiply and add are fused. It fails unless
// some pair of groups settled at two different rows, where the exit rule,
// and not the count, decides what the pass reads, and unless some point met
// level 1 without meeting its last level.
func TestMajorityNearerMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	lattice := func(n, span int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(rng.Intn(span))
		}
		return out
	}
	nonFinite := []float64{math.NaN(), math.Copysign(math.NaN(), -1), math.Inf(1), math.Inf(-1)}
	spoil := func(vals []float64, oneIn int) []float64 {
		for i := range vals {
			if rng.Intn(oneIn) == 0 {
				vals[i] = nonFinite[rng.Intn(len(nonFinite))]
			}
		}
		return vals
	}
	randomNeed := func() []int {
		need := make([]int, 1+rng.Intn(MajorityLevels))
		for j := range need {
			need[j] = rng.Intn(6)
		}
		return need
	}
	type strip struct {
		qs, pos, neg []float64
		need         []int
	}
	latticeStrip := func(w, dims, npos, nneg int) strip {
		return strip{lattice(dims*w, 5), lattice(npos*dims, 4), lattice(nneg*dims, 4), randomNeed()}
	}
	withNeed := func(s strip, need ...int) strip { s.need = need; return s }
	scenarios := []struct {
		name string
		gen  func(w, dims int) strip
	}{
		{"lattice", func(w, dims int) strip { return latticeStrip(w, dims, 1+rng.Intn(5), rng.Intn(30)) }},
		{"dwknn-k7", func(w, dims int) strip {
			return withNeed(latticeStrip(w, dims, 1+rng.Intn(6), rng.Intn(30)), 2, 3, 4)
		}},
		{"dwknn-k16-folded", func(w, dims int) strip {
			return withNeed(latticeStrip(w, dims, 1+rng.Intn(6), rng.Intn(30)), 2, 3, 9)
		}},
		{"fewer-positives-than-levels", func(w, dims int) strip {
			return withNeed(latticeStrip(w, dims, rng.Intn(3), rng.Intn(20)), 1+rng.Intn(2), 2+rng.Intn(2), 3+rng.Intn(2))
		}},
		{"decreasing-and-zero-needs", func(w, dims int) strip {
			return withNeed(latticeStrip(w, dims, 1+rng.Intn(5), rng.Intn(20)), 4, rng.Intn(2), 2)
		}},
		{"no-positive", func(w, dims int) strip { return latticeStrip(w, dims, 0, rng.Intn(12)) }},
		{"fewer-negatives-than-need", func(w, dims int) strip {
			s := latticeStrip(w, dims, 1+rng.Intn(3), rng.Intn(4))
			s.need[len(s.need)-1] = len(s.neg)/dims + 1 + rng.Intn(2)
			return s
		}},
		{"need-1", func(w, dims int) strip { return withNeed(latticeStrip(w, dims, 1+rng.Intn(5), rng.Intn(20)), 1) }},
		{"need-L+1", func(w, dims int) strip {
			s := latticeStrip(w, dims, rng.Intn(5), rng.Intn(20))
			return withNeed(s, (len(s.pos)+len(s.neg))/dims+1)
		}},
		{"non-finite-queries", func(w, dims int) strip {
			s := latticeStrip(w, dims, 1+rng.Intn(5), rng.Intn(30))
			spoil(s.qs, 3*dims)
			return s
		}},
		{"non-finite-rows", func(w, dims int) strip {
			s := latticeStrip(w, dims, 1+rng.Intn(5), rng.Intn(30))
			spoil(s.pos, 2*dims)
			spoil(s.neg, 4*dims)
			return s
		}},
		{"nan-positive-after-finite", func(w, dims int) strip {
			s := latticeStrip(w, dims, 1+rng.Intn(4), 4+rng.Intn(20))
			nan := make([]float64, dims)
			nan[rng.Intn(dims)] = nonFinite[rng.Intn(2)]
			s.pos = append(s.pos, nan...)
			return withNeed(s, 1+rng.Intn(2), 2+rng.Intn(3), 3+rng.Intn(4))
		}},
		{"mirrored", func(w, dims int) strip {
			if dims < 2 {
				return withNeed(latticeStrip(w, dims, 1, 1), 1)
			}
			npos := 1 + rng.Intn(3)
			s := strip{make([]float64, dims*w), make([]float64, npos*dims), nil, []int{1, 2, 3}[:1+rng.Intn(3)]}
			for i := range s.pos {
				s.pos[i] = rng.Float64() * 4
			}
			s.neg = slices.Clone(s.pos)
			for r := 0; r < npos; r++ {
				s.neg[r*dims], s.neg[r*dims+1] = s.neg[r*dims+1], s.neg[r*dims]
			}
			for i := 0; i < w; i++ {
				q := rng.Float64() * 4
				for d := 0; d < dims; d++ {
					s.qs[d*w+i] = q
				}
			}
			return s
		}},
	}
	widths := []int{256}
	for w := 0; w <= 19; w++ {
		widths = append(widths, w)
	}
	staggered, partial := 0, 0
	for dims := 1; dims <= 9; dims++ {
		for _, w := range widths {
			for _, sc := range scenarios {
				s := sc.gen(w, dims)
				reach := checkMajorityNearer(t, s.qs, w, dims, s.pos, s.neg, s.need)
				for i := 0; i+8 <= w; i += 8 {
					a, b := slices.Max(reach[i:i+4]), slices.Max(reach[i+4:i+8])
					if a != b && max(a, b) <= len(s.neg)/dims {
						staggered++
					}
				}
				if len(s.need) > 1 {
					first, _ := majorityReference(s.qs, w, dims, s.pos, s.neg, s.need[:1])
					all, _ := majorityReference(s.qs, w, dims, s.pos, s.neg, s.need)
					for i := range first {
						partial += bits.OnesCount8(first[i] &^ all[i])
					}
				}
			}
		}
	}
	t.Logf("%d pairs of groups settled at two different rows, %d points met level 1 and not their last", staggered, partial)
	if staggered == 0 {
		t.Error("no pair of groups settled at two different rows: the exit rule went untested")
	}
	if partial == 0 {
		t.Error("no point met level 1 without its last level: the later levels went untested")
	}
}

// majorityPalette is what FuzzMajorityNearer's bytes below 0x80 spell, by
// their low four bits: lattice values (ties), ±0, −1, the smallest
// subnormal, values whose squares overflow or nearly do, ±Inf and NaNs of
// both signs. Bytes from 0x80 on spell multiples of 0.1, which round.
var majorityPalette = []float64{
	0, 1, 2, 3, 4, 0.5, math.Copysign(0, -1), -1,
	5e-324, 1e200, math.Inf(1), math.Inf(-1),
	math.NaN(), math.Copysign(math.NaN(), -1), 1e154, 3.7,
}

// FuzzMajorityNearer reads bytes as (w, dims, npos, nneg, levels, need,
// values): w is 0-40, dims 1-9, npos 0-7, nneg 0-15, levels 1-MajorityLevels
// and each of the levels' needs 0-nneg+1, and each later byte is one value —
// the queries, layout [d*w+i], then the positive rows, then the negative
// ones, zero where the bytes run out — and holds the kernel to its
// definition and its Go loop on them. The committed corpus under
// testdata/fuzz/ spells, at one level, a negative tied with the nearest
// positive, a NaN lane in the second group of a pair, a tail of three
// points and a pair whose groups settle at different rows; at three levels
// (DWKNN's 2, 3, 4), lanes that meet level 1 but not level 3 and a pair
// whose groups meet every level at different rows.
func FuzzMajorityNearer(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		w, dims := int(data[0])%41, 1+int(data[1])%9
		npos, nneg := int(data[2])%8, int(data[3])%16
		need := make([]int, 1+int(data[4])%MajorityLevels)
		data = data[5:]
		if len(data) < len(need) {
			return
		}
		for j := range need {
			need[j] = int(data[j]) % (nneg + 2)
		}
		data = data[len(need):]
		vals := make([]float64, dims*(w+npos+nneg))
		for i, b := range data[:min(len(data), len(vals))] {
			if b < 0x80 {
				vals[i] = majorityPalette[b%16]
			} else {
				vals[i] = float64(b-0x80) / 10
			}
		}
		qs, rows := vals[:dims*w], vals[dims*w:]
		checkMajorityNearer(t, qs, w, dims, rows[:npos*dims], rows[npos*dims:], need)
	})
}

// checkSelectLanes holds the lane-wise selection to SelectKMin, lane by lane,
// on a strip of rows × w bit patterns placed one word into a canaried array:
// SelectLanes must hand every lane, in ascending order, exactly SelectKMin's
// list and leave the strip as it was. With the AVX2 body live it is also
// called on each whole group of four lanes on its own: the lanes it flags
// must be exactly those holding a value outside [+0, +Inf], every other
// lane's list must be SelectKMin's, and nothing past its 8k list words may
// be written.
func checkSelectLanes(t testing.TB, vals []uint64, w, rows, k int) {
	t.Helper()
	back, d2 := guarded(vals, 0)
	want := make([][]Neighbor, w)
	for i := range want {
		want[i] = SelectKMin(d2, i, w, rows, k, make([]Neighbor, 0, k))
	}
	same := func(what string, i int, got []Neighbor) {
		t.Helper()
		if len(got) != len(want[i]) {
			t.Fatalf("%s: w=%d rows=%d k=%d lane %d: %d neighbours, want %d", what, w, rows, k, i, len(got), len(want[i]))
		}
		for j, n := range want[i] {
			if got[j].Idx != n.Idx || math.Float64bits(got[j].D2) != math.Float64bits(n.D2) {
				t.Fatalf("%s: w=%d rows=%d k=%d lane %d slot %d: got (%016x, row %d), want (%016x, row %d)",
					what, w, rows, k, i, j, math.Float64bits(got[j].D2), got[j].Idx, math.Float64bits(n.D2), n.Idx)
			}
		}
	}

	next := 0
	SelectLanes(d2, w, rows, k, make([]Neighbor, 0, k), func(i int, nb []Neighbor) {
		if i != next {
			t.Fatalf("SelectLanes: w=%d rows=%d k=%d: lane %d handed over where lane %d was due", w, rows, k, i, next)
		}
		next++
		same("SelectLanes", i, nb)
	})
	if next != w {
		t.Fatalf("SelectLanes: w=%d rows=%d k=%d: %d lanes handed over", w, rows, k, next)
	}
	sameBits(t, "SelectLanes (the strip)", 0, back, d2, vals)

	if !hasAVX2 || rows == 0 {
		return
	}
	for i := 0; i+4 <= w; i += 4 {
		lists := make([]uint64, 8*k+4)
		for j := range lists {
			lists[j] = canary64
		}
		odd := selectLanesAVX2(d2[i:], w, rows, k, lists[:8*k])
		if odd>>4 != 0 {
			t.Fatalf("vector body alone: w=%d rows=%d k=%d lanes %d-%d: flags %#x, four lanes at most", w, rows, k, i, i+3, odd)
		}
		for l := range 4 {
			outside := false
			for r := 0; r < rows; r++ {
				outside = outside || vals[r*w+i+l] > 0x7FF0000000000000
			}
			if flagged := odd>>l&1 != 0; flagged != outside {
				t.Fatalf("vector body alone: w=%d rows=%d k=%d lane %d: flagged %v, a value outside [+0, +Inf] %v", w, rows, k, i+l, flagged, outside)
			}
			if outside {
				continue
			}
			got := make([]Neighbor, min(k, rows))
			for j := range got {
				got[j] = Neighbor{Idx: int(lists[4*k+4*j+l]), D2: math.Float64frombits(lists[4*j+l])}
			}
			same("vector body alone", i+l, got)
		}
		for j, x := range lists[8*k:] {
			if x != canary64 {
				t.Fatalf("vector body alone: w=%d rows=%d k=%d: wrote list word %d of %d", w, rows, k, 8*k+j, 8*k)
			}
		}
	}
}

// The selection against SelectKMin: every k 1-9 and the two either side of
// laneMaxK, every row count 0-70, widths with and without a ragged group, on
// lattice integers (ties are the common case), distinct values, one value
// repeated, zeros and the smallest subnormal, +Inf half the time, lattice
// strips where a rare value lies outside [+0, +Inf] (NaNs of both signs, -0,
// -1), and the whole strip palette.
func TestSelectLanesMatchesSelectKMin(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	lattice := func() uint64 { return math.Float64bits(float64(rng.Intn(5))) }
	outside := []uint64{0x7FF8000000000001, 0xFFF8000000000002, 0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF, 0x8000000000000000, math.Float64bits(-1)}
	kinds := []struct {
		name string
		draw func() uint64
	}{
		{"lattice", lattice},
		{"distinct", func() uint64 { return math.Float64bits(rng.ExpFloat64()) }},
		{"repeated", func() uint64 { return math.Float64bits(2) }},
		{"zeros", func() uint64 { return uint64(rng.Intn(2)) }},
		{"inf", func() uint64 {
			if rng.Intn(2) == 0 {
				return 0x7FF0000000000000
			}
			return lattice()
		}},
		{"rare-outside", func() uint64 {
			if rng.Intn(60) == 0 {
				return outside[rng.Intn(len(outside))]
			}
			return lattice()
		}},
		{"palette", func() uint64 { return stripPalette[rng.Intn(len(stripPalette))] }},
	}
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, laneMaxK, laneMaxK + 1} {
		for rows := 0; rows <= 70; rows++ {
			for _, w := range []int{1, 4, 7, 8, 13} {
				for _, kind := range kinds {
					vals := make([]uint64, rows*w)
					for i := range vals {
						vals[i] = kind.draw()
					}
					checkSelectLanes(t, vals, w, rows, k)
				}
			}
		}
	}
}

// FuzzSelectLanes reads bytes as (k, w, bit patterns): k is 1-18, w 1-9, and
// the strip as many whole rows of w patterns as there are, up to 70. The
// committed corpus under testdata/fuzz/ spells the ties, the infinities in a
// list's first rows and the NaNs that raw bytes rarely do.
func FuzzSelectLanes(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k, w, data := 1+int(data[0])%18, 1+int(data[1])%9, data[2:]
		rows := min(len(data)/8/w, 70)
		vals := make([]uint64, rows*w)
		for i := range vals {
			vals[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		checkSelectLanes(t, vals, w, rows, k)
	})
}

// Every instruction in the package's .s files that names an X or Y register
// must be VEX-encoded: a legacy-SSE one among the 256-bit instructions
// computes the same bits, so no differential test sees it, and costs a state
// transition or a false dependency each time it runs.
func TestVectorBodiesAreVEX(t *testing.T) {
	files, err := filepath.Glob("*.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no assembly found: %v", err)
	}
	vreg := regexp.MustCompile(`\b[XY](1[0-5]|[0-9])\b`)
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			if op := strings.Fields(code); len(op) > 0 && vreg.MatchString(code) && !strings.HasPrefix(op[0], "V") {
				t.Errorf("%s:%d: %s is not VEX-encoded", file, n+1, op[0])
			}
		}
	}
}

// BenchmarkStripKernels times the strip kernels per element (per point for
// the majority pass and per lane for the selection: 44 rows, k = 7) at a
// full strip (w = 256) and at a ragged one (w = 37: nine blocks and a tail
// of one), the Go loop beside the exported kernel where that runs the AVX2
// body — so a Go release that starts vectorising, or stops inlining, shows.
// The majority pass runs on a terminal step's shape: 5 dimensions, 10
// positive rows in a tight cluster, 34 negatives and the queries uniform,
// DWKNN's need at K = 7.
func BenchmarkStripKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const rows, kNN = 44, 7
	const dims, npos = 5, 10
	need := []int{2, 3, 4}
	pos, neg := make([]float64, npos*dims), make([]float64, (rows-npos)*dims)
	for i := range pos {
		pos[i] = 0.8 + 0.05*rng.Float64()
	}
	for i := range neg {
		neg[i] = rng.Float64()
	}
	for _, w := range []int{256, 37} {
		dst, q := make([]float64, w), make([]float64, w)
		for i := range q {
			q[i] = rng.Float64()
		}
		d2, nb := make([]float64, rows*w), make([]Neighbor, 0, kNN)
		for i := range d2 {
			d2[i] = rng.Float64()
		}
		qs, masks := make([]float64, dims*w), make([]uint8, (w+3)/4)
		for i := range qs {
			qs[i] = rng.Float64()
		}
		for _, k := range []struct {
			name           string
			portable, live func()
		}{
			{"AddSquaredDiff", func() { addSquaredDiffGo(dst, q, 0.5) }, func() { AddSquaredDiff(dst, q, 0.5) }},
			{"SquaredDiffInto", func() { squaredDiffIntoGo(dst, q, 0.5) }, func() { SquaredDiffInto(dst, q, 0.5) }},
			{"ScaleInto", func() { scaleIntoGo(dst, q, 0.37) }, func() { ScaleInto(dst, q, 0.37) }},
			{"MajorityNearer", func() { majorityNearerGo(masks, qs, w, dims, 0, pos, neg, need) }, func() { MajorityNearer(masks, qs, w, dims, pos, neg, need) }},
			{"SelectLanes", func() {
				for i := range w {
					SelectKMin(d2, i, w, rows, kNN, nb)
				}
			}, func() { SelectLanes(d2, w, rows, kNN, nb, func(int, []Neighbor) {}) }},
		} {
			run := func(impl string, fn func()) {
				b.Run(fmt.Sprintf("%s/w=%d/%s", k.name, w, impl), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						fn()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(w), "ns/elem")
				})
			}
			run("portable", k.portable)
			if hasAVX2 {
				run("avx2", k.live)
			}
		}
	}
}
