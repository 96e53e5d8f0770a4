package kernel

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
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
	canary32 = int32(-0x21524111)
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

// checkStripKernels holds the four element-wise strip kernels to their Go
// loops on one input: acc is the strip before the call (the accumulator, the
// stale contents, the running minima, the distances), term the query column
// (the candidate minima, the thresholds), both placed at unaligned offsets.
// The exported kernel must equal the Go loop
// over the whole length. With the AVX2 bodies live, the assembly is also
// called on its own: the first len&^3 elements must equal the Go loop's and
// the tail must be left as it was.
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
		{"AddSquaredDiff", addSquaredDiffGo, AddSquaredDiff, addSquaredDiffAVX2},
		{"SquaredDiffInto", squaredDiffIntoGo, SquaredDiffInto, squaredDiffIntoAVX2},
		{"MinInto", func(m, v []float64, _ float64) { minIntoGo(m, v) }, func(m, v []float64, _ float64) { MinInto(m, v) }, func(m, v []float64, _ float64) { minIntoAVX2(m, v) }},
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

	// CountBelow: acc holds the distances, term the running minima.
	_, dist := guarded(acc, off)
	start := make([]int32, n)
	for i := range start {
		start[i] = int32(acc[i]>>40) - 1<<22
	}
	countGuarded := func() (back, cnt []int32) {
		back = make([]int32, 1+off+n+4)
		for i := range back {
			back[i] = canary32
		}
		cnt = back[1+off : 1+off+n : 1+off+n]
		copy(cnt, start)
		return back, cnt
	}
	sameCounts := func(what string, back, got, want []int32) {
		t.Helper()
		for i, w := range want {
			if got[i] != w {
				t.Fatalf("%s: n=%d off=%d i=%d: %016x < %016x counted %d, want %d", what, n, off, i, acc[i], term[i], got[i]-start[i], w-start[i])
			}
		}
		for i, x := range back {
			if (i < 1+off || i >= 1+off+n) && x != canary32 {
				t.Fatalf("%s: n=%d off=%d: wrote backing word %d, outside the slice", what, n, off, i)
			}
		}
	}
	want := append([]int32(nil), start...)
	countBelowGo(want, dist, q)

	back, cnt := countGuarded()
	CountBelow(cnt, dist, q)
	sameCounts("CountBelow", back, cnt, want)

	if hasAVX2 {
		back, cnt = countGuarded()
		countBelowAVX2(cnt, dist, q)
		sameCounts("CountBelow (vector body alone)", back, cnt, append(want[:vec:vec], start[vec:]...))
	}
}

// The assembly against its adversaries: every length 0..70 (whole blocks
// and tails of 0-3), every start offset 0..3 (unaligned heads, a canary
// word on both sides), every palette value as v, accumulator and term drawn
// from the palette so that NaNs meet NaNs, infinities and each other in
// both operand positions.
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

// BenchmarkStripKernels times the strip kernels per element (per lane for
// the selection: 44 rows, k = 7) at a full strip (w = 256) and at a ragged
// one (w = 37: nine blocks and a tail of one), the Go loop beside the
// exported kernel where that runs the AVX2 body — so a Go release that
// starts vectorising, or stops inlining, shows. MinInto is timed with a
// reset of its minima, so the Go loop's branch meets fresh data each time.
func BenchmarkStripKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const rows, kNN = 44, 7
	for _, w := range []int{256, 37} {
		dst, q, thr, cnt := make([]float64, w), make([]float64, w), make([]float64, w), make([]int32, w)
		for i := range q {
			q[i], thr[i] = rng.Float64(), rng.Float64()
		}
		d2, nb := make([]float64, rows*w), make([]Neighbor, 0, kNN)
		for i := range d2 {
			d2[i] = rng.Float64()
		}
		for _, k := range []struct {
			name           string
			portable, live func()
		}{
			{"AddSquaredDiff", func() { addSquaredDiffGo(dst, q, 0.5) }, func() { AddSquaredDiff(dst, q, 0.5) }},
			{"SquaredDiffInto", func() { squaredDiffIntoGo(dst, q, 0.5) }, func() { SquaredDiffInto(dst, q, 0.5) }},
			{"CountBelow", func() { countBelowGo(cnt, q, thr) }, func() { CountBelow(cnt, q, thr) }},
			{"MinInto", func() { copy(dst, thr); minIntoGo(dst, q) }, func() { copy(dst, thr); MinInto(dst, q) }},
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
