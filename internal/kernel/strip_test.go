package kernel

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
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

// checkStripKernels holds the three strip kernels to their Go loops on one
// input: acc is the strip before the call (the accumulator, the stale
// contents, the distances), term the query column (the thresholds), both
// placed at unaligned offsets. The exported kernel must equal the Go loop
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

// BenchmarkStripKernels times the three strip kernels per element at a full
// strip (w = 256) and at a ragged one (w = 37: nine blocks and a tail of
// one), the Go loop beside the exported kernel where that runs the AVX2
// body — so a Go release that starts vectorising, or stops inlining, shows.
func BenchmarkStripKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range []int{256, 37} {
		dst, q, thr, cnt := make([]float64, w), make([]float64, w), make([]float64, w), make([]int32, w)
		for i := range q {
			q[i], thr[i] = rng.Float64(), rng.Float64()
		}
		for _, k := range []struct {
			name           string
			portable, live func()
		}{
			{"AddSquaredDiff", func() { addSquaredDiffGo(dst, q, 0.5) }, func() { AddSquaredDiff(dst, q, 0.5) }},
			{"SquaredDiffInto", func() { squaredDiffIntoGo(dst, q, 0.5) }, func() { SquaredDiffInto(dst, q, 0.5) }},
			{"CountBelow", func() { countBelowGo(cnt, q, thr) }, func() { CountBelow(cnt, q, thr) }},
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
