package kernel

import (
	"encoding/binary"
	"math"
)

// The three chunk kernels below are the decode of a chunk and the
// membership test of the reconstructions that keep few of the postings they
// read (DESIGN.md §5, Region reconstruction). Like the strip kernels, each
// runs its whole blocks in an AVX2 body where the CPU has one
// (chunk_amd64.s), and its Go loop finishes the tail, is the whole body
// everywhere else, and is what the tests hold the assembly to, bit for bit.

// AscendingInto copies the len(dst) little-endian float64s at the start of
// src into dst and reports whether they strictly ascend from −∞: each
// value above the one before it and the first above −∞, so a NaN or a −∞
// anywhere, or two equal neighbours, make it false. The copy is whole
// either way.
func AscendingInto(dst []float64, src []byte) bool {
	src = src[:8*len(dst)]
	n, ok := 0, true
	if hasAVX2 {
		// A block compares its four values with the four after them, so
		// the last value is the tail's even when the length is a multiple
		// of four.
		n = max(len(dst)-1, 0) &^ 3
		ok = ascendingIntoAVX2(dst, src)
	}
	last := math.Inf(-1)
	if n > 0 {
		last = dst[n-1]
	}
	tail := ascendingIntoGo(dst[n:], src[8*n:], last)
	return ok && tail
}

func ascendingIntoGo(dst []float64, src []byte, last float64) bool {
	src = src[:8*len(dst)]
	ok := true
	for i := range dst {
		v := math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		if !(v > last) {
			ok = false
		}
		dst[i], last = v, v
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
