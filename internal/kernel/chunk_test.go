package kernel

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// packBits packs items LSB-first at width bits into exactly
// ⌈len(items)·width/8⌉ bytes, one bit at a time: the format as written down.
func packBits[T uint32 | uint64](items []T, width uint) []byte {
	out := make([]byte, (len(items)*int(width)+7)/8)
	for k, v := range items {
		for i := 0; i < int(width); i++ {
			if bit := k*int(width) + i; v>>i&1 != 0 {
				out[bit/8] |= 1 << (bit % 8)
			}
		}
	}
	return out
}

// TestBitWriterPacksTheFormat: BitWriter's sections are packBits' byte
// for byte, at every width 0–64 and 0–40 items, with Flush ending one
// section and starting the next on a fresh byte.
func TestBitWriterPacksTheFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	var bw BitWriter
	for width := uint(0); width <= 64; width++ {
		for n := 0; n <= 40; n++ {
			items := make([]uint64, n)
			for k := range items {
				items[k] = rng.Uint64() >> (64 - width) & (1<<width - 1)
			}
			buf := []byte{0xA5}
			for _, v := range items {
				if width <= 32 && v&1 == 0 {
					buf = bw.Append(buf, uint32(v), width)
				} else {
					buf = bw.Append64(buf, v, width)
				}
			}
			buf = bw.Flush(buf)
			sec := packBits(items, width)
			if want := append([]byte{0xA5}, sec...); !bytes.Equal(buf, want) {
				t.Fatalf("width %d, %d items: wrote %x, want %x", width, n, buf, want)
			}
			if buf = bw.Flush(bw.Append(buf, 1, 1)); !bytes.Equal(buf[len(buf)-1:], []byte{1}) || len(buf) != len(sec)+2 {
				t.Fatalf("width %d, %d items: the next section starts at %x", width, n, buf[len(sec)+1:])
			}
		}
	}
}

// placed returns a copy of sec that starts off bytes into a backing array
// and is followed by 0xFF bytes, capacity clipped to the copy: a load that
// strays past the section reads ones.
func placed(sec []byte, off int) []byte {
	back := bytes.Repeat([]byte{0xFF}, off+len(sec)+8)
	s := back[off : off+len(sec) : off+len(sec)]
	copy(s, sec)
	return s
}

const (
	canaryU32  = 0xDEADBEEF
	canaryMask = 0xA5
)

// checkUnpack holds Unpack to its Go loop on the n items at width in src,
// each into a destination with a canary word on both sides. With the AVX2
// body live it is also called on its own, over the blocks Unpack gives it:
// those items must be the Go loop's and the rest of the destination must be
// left as it was. It returns the Go loop's items.
func checkUnpack(t testing.TB, src []byte, n int, width uint) []uint32 {
	t.Helper()
	want := make([]uint32, n)
	unpackGo(want, src, width)
	dst := func() (back, dst []uint32) {
		back = make([]uint32, n+2)
		for i := range back {
			back[i] = canaryU32
		}
		return back, back[1 : 1+n : 1+n]
	}
	same := func(what string, back, got, want []uint32) {
		t.Helper()
		for i, w := range want {
			if got[i] != w {
				t.Fatalf("%s: width %d, %d items in %d bytes: item %d is %#x, want %#x", what, width, n, len(src), i, got[i], w)
			}
		}
		for i, x := range back {
			if (i == 0 || i > len(want)) && x != canaryU32 {
				t.Fatalf("%s: width %d, %d items in %d bytes: wrote word %d, outside the items it was due", what, width, n, len(src), i)
			}
		}
	}
	back, got := dst()
	Unpack(got, src, width)
	same("Unpack", back, got, want)
	if hasAVX2 {
		k := unpackItems(n, len(src), width)
		back, got = dst()
		unpackAVX2(got[:k], src, width)
		same("Unpack (vector body alone)", back, got, want[:k])
	}
	return want
}

// bitsAt reads the width-bit item at bit of sec one bit at a time, zeros
// past its end: the format as written down.
func bitsAt(sec []byte, bit uint64, width uint) uint64 {
	v := uint64(0)
	for i := uint64(0); i < uint64(width); i++ {
		if b := bit + i; b/8 < uint64(len(sec)) {
			v |= uint64(sec[b/8]>>(b%8)&1) << i
		}
	}
	return v
}

// checkGaps holds AscendingGapsInto to its Go loop, and the Go loop to the
// definition, on the run from first over the n gaps at width in sec, the
// section placed off bytes into a larger array and decoded into a
// destination of canary words. With the AVX2 body live it is also called
// on its own over the passes AscendingGapsInto gives it: it must leave the
// rest alone, report whether a key wrapped and write exactly their
// values, wrapped or not. It returns the run's bits.
func checkGaps(t testing.TB, first uint64, sec []byte, n int, width uint, off int) []uint64 {
	t.Helper()
	src := placed(sec, off)
	vals := make([]uint64, n+1)
	vals[0] = first
	key := OrderKey(math.Float64frombits(first))
	for k := range n {
		key += bitsAt(sec, uint64(k)*uint64(width), width) + 1
		vals[k+1] = fromKey(key)
	}
	want := make([]float64, n+1)
	want[0] = math.Float64frombits(first)
	wantOK := ascendingGapsGo(want[1:], want[0], src, 0, width) && want[0] > math.Inf(-1)
	for i, v := range want {
		if math.Float64bits(v) != vals[i] {
			t.Fatalf("Go loop: width %d, %d gaps: value %d is %016x, the definition says %016x", width, n, i, math.Float64bits(v), vals[i])
		}
	}
	canaries := make([]uint64, n+1)
	for i := range canaries {
		canaries[i] = canary64
	}
	back, dst := guarded(canaries, off)
	if got := AscendingGapsInto(dst, want[0], src, width); got != wantOK {
		t.Fatalf("AscendingGapsInto(%016x, width %d, %d gaps) = %v, the Go loop says %v", first, width, n, got, wantOK)
	}
	sameBits(t, "AscendingGapsInto", off, back, dst, vals)

	if !hasAVX2 || width > MaxVectorGap {
		return vals
	}
	vsrc := src
	if width == 0 {
		vsrc = zeroGaps[:]
	}
	m := gapItems(n, len(vsrc), width)
	wrapped, key := false, OrderKey(want[0])
	for k := range m {
		next := key + bitsAt(sec, uint64(k)*uint64(width), width) + 1
		wrapped = wrapped || next < key
		key = next
	}
	canaries[0] = first
	back, dst = guarded(canaries, off)
	if got := ascendingGapsAVX2(dst[:m+1], vsrc, width, &gapPlans[width]); got == wrapped {
		t.Fatalf("vector body alone: width %d, %d of %d gaps from %016x: no key wrapped: %v, the definition says %v", width, m, n, first, got, !wrapped)
	}
	sameBits(t, "AscendingGapsInto (vector body alone)", off, back, dst, append(vals[:m+1:m+1], canaries[m+1:]...))
	return vals
}

// checkRun holds AscendingGapsInto to its Go loop on the values vals
// (bits), each gap the difference of neighbouring keys less one, wrapped
// to 64 bits — so equal, descending and NaN neighbours are runs too — at
// the width the gaps need and at every width above it by steps of 7, and
// requires the decode to give vals back.
func checkRun(t testing.TB, vals []uint64, off int) {
	t.Helper()
	if len(vals) == 0 {
		if !AscendingGapsInto(nil, 0, nil, 0) {
			t.Fatal("AscendingGapsInto: no values do not ascend")
		}
		return
	}
	gaps, need := make([]uint64, len(vals)-1), uint64(0)
	for i := range gaps {
		gaps[i] = OrderKey(math.Float64frombits(vals[i+1])) - OrderKey(math.Float64frombits(vals[i])) - 1
		need |= gaps[i]
	}
	for width := uint(bits.Len64(need)); width <= 64; width += 7 {
		if got := checkGaps(t, vals[0], packBits(gaps, width), len(gaps), width, off); !slices.Equal(got, vals) {
			t.Fatalf("width %d: decoded %x, encoded %x", width, got, vals)
		}
	}
}

// checkMemberMasks holds MemberMasks to its Go loop, and the Go loop to the
// definition for every id below limit, writing into mask bytes with a
// canary on both sides. With the AVX2 body live it is also called on its
// own over the whole blocks: their bytes and their largest id must be the
// Go loop's, and nothing after them written.
func checkMemberMasks(t testing.TB, ids, set []uint32, limit uint32) {
	t.Helper()
	top, nm := max(limit, 1)-1, (len(ids)+7)/8
	want := make([]uint8, nm)
	wantMax := memberMasksGo(want, ids, set, top)
	if len(ids) > 0 && wantMax != slices.Max(ids) || len(ids) == 0 && wantMax != 0 {
		t.Fatalf("Go loop: largest of %d ids is %d", len(ids), wantMax)
	}
	for k, id := range ids {
		if id < limit && uint32(want[k/8]>>(k%8)&1) != set[id>>5]>>(id&31)&1 {
			t.Fatalf("Go loop: limit %d: id %d at %d has the wrong member bit", limit, id, k)
		}
	}
	masks := func() (back, m []uint8) {
		back = bytes.Repeat([]byte{canaryMask}, nm+2)
		return back, back[1 : 1+nm : 1+nm]
	}
	same := func(what string, back, got, want []uint8, gotMax, wantMax uint32) {
		t.Helper()
		if gotMax != wantMax {
			t.Fatalf("%s: limit %d, %d ids: largest id %d, want %d", what, limit, len(ids), gotMax, wantMax)
		}
		for j, w := range want {
			if got[j] != w {
				t.Fatalf("%s: limit %d, %d ids: mask %d is %08b, want %08b (ids %v)", what, limit, len(ids), j, got[j], w, ids[8*j:min(8*j+8, len(ids))])
			}
		}
		for i, x := range back {
			if (i == 0 || i > len(want)) && x != canaryMask {
				t.Fatalf("%s: limit %d, %d ids: wrote mask byte %d, outside the ones due", what, limit, len(ids), i)
			}
		}
	}
	back, got := masks()
	same("MemberMasks", back, got, want, MemberMasks(got, ids, set, limit), wantMax)
	if hasAVX2 {
		k := len(ids) &^ 7
		back, got = masks()
		vecMax := uint32(0)
		if k > 0 {
			vecMax = slices.Max(ids[:k])
		}
		same("MemberMasks (vector body alone)", back, got, want[:k/8], memberMasksAVX2(got[:k/8], ids[:k], set, top), vecMax)
	}
}

// memberSet draws a bitset for limit: each bit below limit set with
// probability density, every bit from limit up to the end of its last word
// set, and the set followed by words of ones — so an id that reached a bit
// past the clamp would, more often than not, read a one its clamp does not.
func memberSet(rng *rand.Rand, limit uint32, density float64) []uint32 {
	words := int(max(limit, 1)+31) / 32
	back := make([]uint32, words+4)
	for i := range back {
		back[i] = math.MaxUint32
	}
	set := back[:words:words]
	for id := uint32(0); id < limit; id++ {
		if rng.Float64() >= density {
			set[id>>5] &^= 1 << (id & 31)
		}
	}
	return set
}

// ascendingLadder is a strictly ascending run through every kind of value
// the check must order: the largest finite magnitudes, normals, the
// subnormals of both signs, a zero, +Inf last.
var ascendingLadder = []uint64{
	0xFFEFFFFFFFFFFFFF, math.Float64bits(-1e200), math.Float64bits(-2.25), math.Float64bits(-1),
	math.Float64bits(-1e-3), 0x8010000000000000, 0x800FFFFFFFFFFFFF, 0x8000000000000001,
	0x0000000000000000, 0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x0010000000000000,
	math.Float64bits(1e-3), math.Float64bits(1), math.Float64bits(1.0000000000000002),
	math.Float64bits(1.5), math.Float64bits(3e7), math.Float64bits(1e200), 0x7FEFFFFFFFFFFFFF,
	0x7FF0000000000000,
}

// ascendingRun draws n strictly ascending values: a random subset of the
// ladder and of normals between its rungs, with the zero of either sign.
func ascendingRun(rng *rand.Rand, n int) []uint64 {
	pool := slices.Clone(ascendingLadder)
	for len(pool) < n+20 {
		pool = append(pool, math.Float64bits(rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20))))
	}
	slices.SortFunc(pool, func(a, b uint64) int {
		return cmp.Compare(math.Float64frombits(a), math.Float64frombits(b))
	})
	pool = slices.CompactFunc(pool, func(a, b uint64) bool { return math.Float64frombits(a) == math.Float64frombits(b) })
	pick := rng.Perm(len(pool))[:n]
	slices.Sort(pick)
	out := make([]uint64, n)
	for i, p := range pick {
		out[i] = pool[p]
		if out[i] == 0 && rng.Intn(2) == 0 {
			out[i] = 0x8000000000000000
		}
	}
	return out
}

// The chunk kernels against their Go loops: Unpack at every width 1–32,
// every item count 0–70 and every start offset 0–3, items drawn whole-range
// and all-ones; AscendingGapsInto at every width 0–64 on 0–40 gaps drawn
// whole-range and all-ones (most of them wrap past 2⁶⁴) after a first
// value from the ladder, and on strictly ascending runs of length 0–40
// through ±0, subnormals and +Inf, and on each of them spoilt at every
// position — a NaN of either sign, quiet or signalling (at either end too),
// −∞ (first too), +Inf, a value equal to its neighbour (a step of 2⁶⁴), a
// −0 before +0, a swapped pair — each coded at the width its gaps need and
// wider;
// MemberMasks on 0–70 ids for limits 0, 1, 2, multiples of 32 and either
// side of them, ids drawn below limit, at it, past it and at 2³²−1.
func TestChunkKernelsMatchPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for width := uint(1); width <= 32; width++ {
		for n := 0; n <= 70; n++ {
			items := make([]uint32, n)
			for i := range items {
				items[i] = uint32(rng.Uint64() >> (64 - width))
				if rng.Intn(5) == 0 {
					items[i] = uint32(1<<width - 1)
				}
			}
			for off := 0; off <= 3; off++ {
				if got := checkUnpack(t, placed(packBits(items, width), off), n, width); !slices.Equal(got, items) {
					t.Fatalf("width %d, %d items: the Go loop unpacks %x, packed %x", width, n, got, items)
				}
			}
		}
	}

	for width := uint(0); width <= 64; width++ {
		for n := 0; n <= 40; n++ {
			gaps := make([]uint64, n)
			for i := range gaps {
				gaps[i] = rng.Uint64() >> (64 - width) // 0 at width 0
				if rng.Intn(5) == 0 {
					gaps[i] = 1<<width - 1
				}
			}
			first := ascendingLadder[rng.Intn(len(ascendingLadder))]
			for off := 0; off <= 3; off++ {
				checkGaps(t, first, packBits(gaps, width), n, width, off)
			}
		}
	}
	spoil := []func(v []uint64, p int){
		func(v []uint64, p int) { v[p] = 0x7FF8000000000001 },
		func(v []uint64, p int) { v[p] = 0xFFF8000000000002 },
		func(v []uint64, p int) { v[p] = 0x7FF0000000000001 },
		func(v []uint64, p int) { v[p] = 0xFFF0000000000000 },
		func(v []uint64, p int) { v[p] = 0x7FF0000000000000 },
		func(v []uint64, p int) {
			if p > 0 {
				v[p] = v[p-1]
			}
		},
		func(v []uint64, p int) {
			if p > 0 {
				v[p-1], v[p] = 0x8000000000000000, 0x0000000000000000
			}
		},
		func(v []uint64, p int) {
			if p > 0 {
				v[p-1], v[p] = 0x0000000000000000, 0x8000000000000000
			}
		},
		func(v []uint64, p int) {
			if p+1 < len(v) {
				v[p], v[p+1] = v[p+1], v[p]
			}
		},
	}
	for n := 0; n <= 40; n++ {
		base := ascendingRun(rng, n)
		for off := 0; off <= 3; off++ {
			checkRun(t, base, off)
			for p := 0; p < n; p++ {
				for _, s := range spoil {
					v := slices.Clone(base)
					s(v, p)
					checkRun(t, v, off)
				}
			}
		}
	}

	for _, limit := range []uint32{0, 1, 2, 31, 32, 33, 64, 95, 96, 1000, 4096} {
		for n := 0; n <= 70; n++ {
			for _, density := range []float64{0.04, 0.5} {
				set := memberSet(rng, limit, density)
				ids := make([]uint32, n)
				for i := range ids {
					switch r := rng.Intn(10); {
					case r < 6 && limit > 0:
						ids[i] = uint32(rng.Intn(int(limit)))
					case r < 7:
						ids[i] = limit
					case r < 9:
						ids[i] = limit + uint32(rng.Intn(70))
					default:
						ids[i] = math.MaxUint32
					}
				}
				checkMemberMasks(t, ids, set, limit)
			}
		}
	}
}

// TestGapRunsSettledAtTheirEnds: where the vector body takes every gap of
// a run — its section followed by bytes enough for the last loads — what
// the order test asks beyond keys that do not wrap is settled at the run's
// ends. Runs of 16 unit steps at every vector width: through +Inf into NaN
// keys, from −∞, or through −0 into +0 do not ascend; up to −0, or from
// +0, they do.
func TestGapRunsSettledAtTheirEnds(t *testing.T) {
	negZero := OrderKey(math.Copysign(0, -1))
	for width := uint(0); width <= MaxVectorGap; width++ {
		for _, c := range []struct {
			name  string
			first uint64 // its key
			want  bool
		}{
			{"through +Inf into NaN keys", OrderKey(math.MaxFloat64) - 1, false},
			{"from -Inf", OrderKey(math.Inf(-1)), false},
			{"through -0 into +0", negZero - 15, false},
			{"up to -0", negZero - 16, true},
			{"from +0", negZero + 1, true},
		} {
			src := make([]byte, (16*int(width)+7)/8+32) // 16 gaps of 0, then slack
			if hasAVX2 && width > 0 && gapItems(16, len(src), width) != 16 {
				t.Fatalf("width %d: the vector body takes %d of the 16 gaps", width, gapItems(16, len(src), width))
			}
			if got := AscendingGapsInto(make([]float64, 17), math.Float64frombits(fromKey(c.first)), src, width); got != c.want {
				t.Errorf("width %d, %s: ascends = %v, want %v", width, c.name, got, c.want)
			}
		}
	}
}

// FuzzChunkKernels reads bytes as (width, offset, limit, body) and holds
// each chunk kernel to its Go loop on the body: Unpack on it as a section
// of whole items at width 1–32 (up to 200); AscendingGapsInto on it as a
// first value's bits and then a section of gaps at width 0–64 (up to 200;
// at width 0 one per byte); MemberMasks on it as ids against a limit below
// 4097 and a bitset drawn from the limit. The committed corpus under
// testdata/fuzz/ holds a width-25 section with a tail and an id equal to
// the limit, and gap runs at widths 0, 57 and 64, of one value, wrapping
// past 2⁶⁴, through −0 and +0, from −∞, and with a NaN key at either end
// or in the first block.
func FuzzChunkKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		width, off := 1+uint(data[0])%32, int(data[1]&3)
		limit, body := binary.LittleEndian.Uint32(data[2:6])%4097, data[6:]

		n := min(len(body)*8/int(width), 200)
		checkUnpack(t, placed(body[:(n*int(width)+7)/8], off), n, width)

		if len(body) >= 8 {
			gw, sec := uint(data[0])%65, body[8:]
			n := min(len(sec), 200)
			if gw > 0 {
				n = min(len(sec)*8/int(gw), 200)
			}
			checkGaps(t, binary.LittleEndian.Uint64(body), sec[:(n*int(gw)+7)/8], n, gw, off)
		}

		ids := make([]uint32, min(len(body)/4, 200))
		for i := range ids {
			ids[i] = binary.LittleEndian.Uint32(body[4*i:])
		}
		checkMemberMasks(t, ids, memberSet(rand.New(rand.NewSource(int64(limit))), limit, 0.5), limit)
	})
}

// BenchmarkChunkKernels times the chunk kernels per item over one chunk of
// the benchmark stores' shape (6 500 one-row postings), the Go loop beside
// the exported kernel where that runs the AVX2 body: Unpack at widths 16
// and 24 (50k and 10M rows) and 26 (past the vector body: both columns are
// the Go loop), AscendingGapsInto over gaps of the 50k-row stores' values
// (width 45) and the 10M-row stores' (width 38), and MemberMasks with 4 %
// of 50 000 ids in
// the set (the γ sample). The gathers are microcoded on CPUs carrying the
// GDS (Downfall) mitigation; this is where that shows.
func BenchmarkChunkKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n, rows = 6500, 50_000
	type kernel struct {
		name           string
		portable, live func()
	}
	var ks []kernel
	for _, width := range []uint{16, 24, 26} {
		items := make([]uint32, n)
		for i := range items {
			items[i] = uint32(rng.Int63n(1 << width))
		}
		src, dst := packBits(items, width), make([]uint32, n)
		ks = append(ks, kernel{fmt.Sprintf("Unpack/w=%d", width),
			func() { unpackGo(dst, src, width) }, func() { Unpack(dst, src, width) }})
	}
	vals := make([]float64, n)
	for _, width := range []uint{45, 38} {
		gaps := make([]uint64, n-1)
		for i := range gaps {
			gaps[i] = uint64(rng.Int63n(1 << width))
		}
		src := packBits(gaps, width)
		ks = append(ks, kernel{fmt.Sprintf("AscendingGapsInto/w=%d", width),
			func() { vals[0] = 1; ascendingGapsGo(vals[1:], 1, src, 0, width) }, func() { AscendingGapsInto(vals, 1, src, width) }})
	}
	set, ids, masks := memberSet(rng, rows, 0.04), make([]uint32, n), make([]uint8, (n+7)/8)
	for i := range ids {
		ids[i] = uint32(rng.Intn(rows))
	}
	ks = append(ks, kernel{"MemberMasks",
		func() { memberMasksGo(masks, ids, set, rows-1) }, func() { MemberMasks(masks, ids, set, rows) }})

	for _, k := range ks {
		run := func(impl string, fn func()) {
			b.Run(k.name+"/"+impl, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					fn()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/item")
			})
		}
		run("portable", k.portable)
		if hasAVX2 {
			run("avx2", k.live)
		}
	}
}
