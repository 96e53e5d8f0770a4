package kernel

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// packBits packs items LSB-first at width bits into exactly
// ⌈len(items)·width/8⌉ bytes, one bit at a time: the format as written down.
func packBits(items []uint32, width uint) []byte {
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

// checkAscending holds AscendingInto to its Go loop on the little-endian
// patterns vals placed off bytes into a larger array, copying into a
// destination of canary words. With the AVX2 body live it is also called
// on its own: it must copy exactly its blocks, leave the rest alone, and
// answer for those values and the one after them.
func checkAscending(t testing.TB, vals []uint64, off int) {
	t.Helper()
	n := len(vals)
	raw := make([]byte, 8*n)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(raw[8*i:], v)
	}
	src := placed(raw, off)
	canaries := make([]uint64, n)
	for i := range canaries {
		canaries[i] = canary64
	}
	want := ascendingIntoGo(make([]float64, n), src, math.Inf(-1))

	back, dst := guarded(canaries, off)
	if got := AscendingInto(dst, src); got != want {
		t.Fatalf("AscendingInto(%x) = %v, the Go loop says %v", vals, got, want)
	}
	sameBits(t, "AscendingInto", off, back, dst, vals)

	if !hasAVX2 {
		return
	}
	m := max(n-1, 0) &^ 3
	vecWant := m == 0 || ascendingIntoGo(make([]float64, m+1), src[:8*(m+1)], math.Inf(-1))
	back, dst = guarded(canaries, off)
	if got := ascendingIntoAVX2(dst, src); got != vecWant {
		t.Fatalf("vector body alone on %x: %v, the Go loop over its %d values and the next says %v", vals, got, m, vecWant)
	}
	sameBits(t, "AscendingInto (vector body alone)", off, back, dst, append(vals[:m:m], canaries[m:]...))
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
// and all-ones; AscendingInto on strictly ascending runs of length 0–40
// through ±0, subnormals and +Inf, and on each of them spoilt at every
// position — a NaN of either sign, quiet or signalling, −∞, +Inf, a value
// equal to its neighbour, a zero after the other zero, a swapped pair;
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
			checkAscending(t, base, off)
			for p := 0; p < n; p++ {
				for _, s := range spoil {
					v := slices.Clone(base)
					s(v, p)
					checkAscending(t, v, off)
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

// FuzzChunkKernels reads bytes as (width, offset, limit, body) and holds
// each chunk kernel to its Go loop on the body: Unpack on it as a section
// of whole items at width 1–32 (up to 200), AscendingInto on it as float64
// patterns (up to 96), MemberMasks on it as ids against a limit below 4097
// and a bitset drawn from the limit. The committed corpus under testdata/fuzz/
// holds a width-25 section with a tail, a NaN in the first block and an id
// equal to the limit.
func FuzzChunkKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		width, off := 1+uint(data[0])%32, int(data[1]&3)
		limit, body := binary.LittleEndian.Uint32(data[2:6])%4097, data[6:]

		n := min(len(body)*8/int(width), 200)
		checkUnpack(t, placed(body[:(n*int(width)+7)/8], off), n, width)

		vals := make([]uint64, min(len(body)/8, 96))
		for i := range vals {
			vals[i] = binary.LittleEndian.Uint64(body[8*i:])
		}
		checkAscending(t, vals, off)

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
// the Go loop), AscendingInto, and MemberMasks with 4 % of 50 000 ids in
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
	raw, vals := make([]byte, 8*n), make([]float64, n)
	for i, v := 0, 0.0; i < n; i++ {
		v += rng.Float64() + 1e-9
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	ks = append(ks, kernel{"AscendingInto",
		func() { ascendingIntoGo(vals, raw, math.Inf(-1)) }, func() { AscendingInto(vals, raw) }})
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
