package kernel

import (
	"encoding/binary"
	"math"
	"slices"
)

// The three chunk kernels below are the decode of a chunk and the
// membership test of the reconstructions that keep few of the postings they
// read (DESIGN.md §5, Region reconstruction). Like the strip kernels, each
// runs its whole blocks in an AVX2 body where the CPU has one
// (chunk_amd64.s), and its Go loop finishes the tail, is the whole body
// everywhere else, and is what the tests hold the assembly to, bit for bit.

// OrderKey maps a float64 to a uint64 whose unsigned order is the
// value's total order: the sign bit of a positive value is set, every bit
// of a negative one flipped. It is a bijection, −0 keys one below +0, and
// every NaN keys below −∞ or above +∞.
func OrderKey(v float64) uint64 {
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// fromKey is OrderKey's inverse, as float64 bits.
func fromKey(k uint64) uint64 {
	return k ^ (^uint64(int64(k)>>63) | 1<<63)
}

// MaxVectorGap is the widest gap the vector body of AscendingGapsInto
// takes: a bit offset of at most 7 and 57 bits fit one 8-byte lane. A
// wider one is the Go loop's, several times slower a value.
const MaxVectorGap = 57

// zeroGaps is the section the vector body loads from at width 0, where
// every gap is 0 and the gap section itself may be empty.
var zeroGaps [16]byte

// gapPlan is how the vector body of AscendingGapsInto places the eight
// gaps of a pass at one width, which take exactly width bytes: gap j
// starts at bit j·width. Each block of four is two 16-byte loads — at
// byte 0 and off[0] for gaps 0–3, off[1] and off[2] for gaps 4–7 — whose
// bytes ctl moves into the gaps' lanes, and shift is each lane's bit
// offset. The layout is the assembly's.
type gapPlan struct {
	ctl   [2][32]byte
	shift [2][4]uint64
	off   [3]uint64
}

// gapPlans holds the plan of every vector width.
var gapPlans = func() (plans [MaxVectorGap + 1]gapPlan) {
	for w := range plans {
		p := &plans[w]
		byteOf := func(j int) int { return j * w / 8 }
		p.off = [3]uint64{uint64(byteOf(2)), uint64(byteOf(4)), uint64(byteOf(6))}
		for j := 0; j < 8; j++ {
			blk, half, lane := j/4, j/2%2, j%4
			base := byteOf(j &^ 1) // the byte its half loads from
			for k := 0; k < 8; k++ {
				p.ctl[blk][16*half+8*(j%2)+k] = byte(byteOf(j) - base + k)
			}
			p.shift[blk][lane] = uint64(j * w % 8)
		}
	}
	return plans
}()

// AscendingGapsInto decodes an ascending run stored as its first value
// and the gaps between neighbouring order keys (OrderKey) less one: it
// sets dst[0] to first and each later dst[i] to the value whose key is
// dst[i−1]'s plus item i−1 of src plus one, the len(dst)−1 items packed
// LSB-first at width bits (0…64), item k at bits [k·width, (k+1)·width).
// src must hold them all; bytes after them are read, never used. It
// reports whether the values strictly ascend from −∞ — each above the one
// before, the first above −∞ — which a key that wraps past 2⁶⁴, a NaN
// anywhere, a −∞ first or a −0 before +0 make false. The decode is whole
// either way.
//
// The AVX2 body takes eight gaps a pass, at widths up to MaxVectorGap,
// over the passes whose every load ends inside src: two 16-byte loads and
// a shuffle a block of four, a shift and a mask, a prefix sum carried from
// block to block, and a test that no key wrapped. Keys that do not wrap
// ascend, so what else the test asks is settled at the ends of the run:
// the first value above −∞, the last no NaN, and a −0, if the run holds
// one, not followed by +0. Wider gaps and the rest are the Go loop's.
func AscendingGapsInto(dst []float64, first float64, src []byte, width uint) bool {
	if len(dst) == 0 {
		return true
	}
	dst[0] = first
	ok := first > math.Inf(-1)
	n := 0
	if hasAVX2 && width <= MaxVectorGap {
		if width == 0 {
			src = zeroGaps[:]
		}
		if n = gapItems(len(dst)-1, len(src), width); n > 0 {
			ok = ascendingGapsAVX2(dst[:n+1], src, width, &gapPlans[width]) && ok &&
				dst[n] <= math.Inf(1) && !zeroPair(dst[:n+1])
		}
	}
	return ascendingGapsGo(dst[n+1:], dst[n], src, uint64(n)*uint64(width), width) && ok
}

// gapItems is how many of n leading gaps at width the vector body takes
// from a section of srcLen bytes: the whole passes of eight whose last
// load — 16 bytes at byte p·width + ⌊6·width/8⌋ of pass p — ends inside it.
func gapItems(n, srcLen int, width uint) int {
	if width == 0 {
		return n &^ 7
	}
	reach := int(6*width/8) + 16
	if srcLen < reach {
		return 0
	}
	return 8 * min(n/8, (srcLen-reach)/int(width)+1)
}

// zeroPair reports whether the run v, whose keys ascend and hold no NaN,
// holds a −0 followed by +0: the one pair of neighbouring keys whose
// values are equal. A −0 can only be the first value not below zero.
func zeroPair(v []float64) bool {
	i, _ := slices.BinarySearch(v, 0)
	return i+1 < len(v) && math.Float64bits(v[i]) == 1<<63 && math.Float64bits(v[i+1]) == 0
}

// ascendingGapsGo is AscendingGapsInto in Go after its first value: dst
// follows prev, its gaps start at bit of src, and the test starts from
// prev. Item k is two unaligned 8-byte loads, a funnel shift and a mask,
// from a zero-padded copy where the loads would run past src.
func ascendingGapsGo(dst []float64, prev float64, src []byte, bit uint64, width uint) bool {
	mask := uint64(1)<<width - 1 // every bit at width 64
	key, ok := OrderKey(prev), true
	var pad [16]byte
	for i := range dst {
		at, shift := bit>>3, uint(bit&7)
		word := pad[:]
		if at+16 <= uint64(len(src)) {
			word = src[at : at+16]
		} else {
			clear(pad[:])
			copy(pad[:], src[min(at, uint64(len(src))):])
		}
		gap := binary.LittleEndian.Uint64(word)>>shift | binary.LittleEndian.Uint64(word[8:])<<(64-shift)
		key += gap&mask + 1
		v := math.Float64frombits(fromKey(key))
		if !(v > prev) {
			ok = false
		}
		dst[i], prev = v, v
		bit += uint64(width)
	}
	return ok
}

// Unpack fills dst with the len(dst) values packed LSB-first at width bits
// (1…32) in src, item k at bits [k·width, (k+1)·width). src must hold them
// all: at least ⌈len(dst)·width/8⌉ bytes.
//
// The AVX2 body takes eight items a block with one gather of 4-byte loads,
// a shift and a mask, at widths up to 25 (a bit offset of at most 7 and 25
// bits fit a dword), and only the blocks whose every load ends inside src.
// Wider items and the rest are the Go loop's.
func Unpack(dst []uint32, src []byte, width uint) {
	k := 0
	if hasAVX2 {
		k = unpackItems(len(dst), len(src), width)
		unpackAVX2(dst[:k], src, width)
	}
	unpackGo(dst[k:], src[k*int(width)/8:], width)
}

// unpackItems is how many of n leading items at width the vector body
// takes from a section of srcLen bytes: the whole blocks of eight whose
// last load — bytes b·width + ⌊7·width/8⌋ … +3 of block b — ends inside it.
func unpackItems(n, srcLen int, width uint) int {
	reach := int(7*width/8 + 4)
	if width > 25 || srcLen < reach {
		return 0
	}
	return 8 * min(n/8, (srcLen-reach)/int(width)+1)
}

// unpackGo is Unpack in Go. Item k is one unaligned 8-byte load at byte
// k·width/8, a shift and a mask — no item's position waits on another's
// value — and the items whose load would run past src read a zero-padded
// copy of its tail.
func unpackGo(dst []uint32, src []byte, width uint) {
	mask := uint64(1)<<width - 1
	k, bit := 0, uint(0)
	if len(src) >= 8 {
		for fast := min(len(dst), ((len(src)-8)*8+7)/int(width)+1); k < fast; k++ {
			dst[k] = uint32(binary.LittleEndian.Uint64(src[bit>>3:bit>>3+8]) >> (bit & 7) & mask)
			bit += width
		}
	}
	if k == len(dst) {
		return
	}
	var pad [16]byte
	base := bit >> 3
	copy(pad[:], src[base:])
	for bit -= base * 8; k < len(dst); k++ {
		dst[k] = uint32(binary.LittleEndian.Uint64(pad[bit>>3:]) >> (bit & 7) & mask)
		bit += width
	}
}

// BitWriter packs items LSB-first, item k at bits [k·width, (k+1)·width)
// of a section when every item is width bits wide: the layout Unpack and
// AscendingGapsInto read. acc holds the n bits not yet written, fewer
// than 32 between calls, which leave it four bytes at a time.
type BitWriter struct {
	acc uint64
	n   uint
}

// Append packs v, which must fit width bits (0…32), onto buf.
func (b *BitWriter) Append(buf []byte, v uint32, width uint) []byte {
	b.acc |= uint64(v) << b.n
	if b.n += width; b.n >= 32 {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(b.acc))
		b.acc >>= 32
		b.n -= 32
	}
	return buf
}

// Append64 packs v, which must fit width bits (0…64), onto buf: its low
// half, then its high.
func (b *BitWriter) Append64(buf []byte, v uint64, width uint) []byte {
	if width <= 32 {
		return b.Append(buf, uint32(v), width)
	}
	return b.Append(b.Append(buf, uint32(v), 32), uint32(v>>32), width-32)
}

// Flush ends the section: it writes the last partial bytes, their unused
// bits zero, and leaves b ready for the next section.
func (b *BitWriter) Flush(buf []byte) []byte {
	for ; b.n > 0; b.n -= min(b.n, 8) {
		buf = append(buf, byte(b.acc))
		b.acc >>= 8
	}
	*b = BitWriter{}
	return buf
}

// MemberMasks sets bit b of masks[j] where ids[8j+b] is a member of the
// bitset set (bit id&31 of word id>>5) and clears it where it is not, for
// the ⌈len(ids)/8⌉ bytes of masks it writes, and returns the largest id (0
// for none). set must hold at least max(limit, 1) bits, and an id is
// clamped to max(limit, 1) − 1 before it indexes set, so an id at or past
// limit reads the clamp's bit and never a word outside set: a caller that
// refuses every maxID ≥ limit can ignore what such an id's bit says.
func MemberMasks(masks []uint8, ids []uint32, set []uint32, limit uint32) (maxID uint32) {
	top := max(limit, 1) - 1
	_ = set[top>>5]
	masks = masks[:(len(ids)+7)/8]
	k := 0
	if hasAVX2 {
		k = len(ids) &^ 7
		maxID = memberMasksAVX2(masks[:k/8], ids[:k], set, top)
	}
	return max(maxID, memberMasksGo(masks[k/8:], ids[k:], set, top))
}

func memberMasksGo(masks []uint8, ids []uint32, set []uint32, top uint32) (maxID uint32) {
	for j := range masks {
		var m uint8
		for b, id := range ids[8*j : min(8*j+8, len(ids))] {
			maxID = max(maxID, id)
			c := min(id, top)
			m |= uint8(set[c>>5]>>(c&31)&1) << b
		}
		masks[j] = m
	}
	return maxID
}
