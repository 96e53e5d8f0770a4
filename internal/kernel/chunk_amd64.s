#include "textflag.h"

// The vector bodies of the three chunk kernels (DESIGN.md §17, Vector
// bodies), under the rules of strip_amd64.s: unaligned loads and stores,
// nothing read or written past what the Go wrapper hands over, VEX
// encoding only, VZEROUPPER before returning from 256-bit code. The gap
// decode's caller passes just the passes whose every 16-byte load ends
// inside src. The two gathers read only inside their base slice: Unpack's
// caller passes just the blocks whose every load ends inside src, and
// MemberMasks clamps each id into set before it becomes an index.

// lanes is 0 … 7, one dword each: the item of a block each lane unpacks.
DATA lanes<>+0(SB)/4, $0
DATA lanes<>+4(SB)/4, $1
DATA lanes<>+8(SB)/4, $2
DATA lanes<>+12(SB)/4, $3
DATA lanes<>+16(SB)/4, $4
DATA lanes<>+20(SB)/4, $5
DATA lanes<>+24(SB)/4, $6
DATA lanes<>+28(SB)/4, $7
GLOBL lanes<>(SB), RODATA|NOPTR, $32

// GAPS leaves in Y13 the keys of the four gaps whose bytes start at lo
// (the first two) and hi (the last two) and in Y5 the last of them: the
// two 16-byte halves are loaded, the shuffle control at ctl moves each
// gap's eight bytes into its lane, the shifts at sh move its bits down and
// Y2 masks width bits. The steps (gap +
// 1) are summed in the register — [a, b, c, d] → [a, a+b, a+b+c, a+b+c+d]
// — onto the key carried in Y5, and a key below it, which only a key that
// wrapped past 2⁶³ can be, sets Y7.
#define GAPS(lo, hi, ctl, sh) \
	VMOVDQU  lo, X13; \
	VINSERTI128 $1, hi, Y13, Y13; \
	VPSHUFB  ctl, Y13, Y13; \
	VPSRLVQ  sh, Y13, Y13; \
	VPAND    Y2, Y13, Y13; \
	VPSUBQ   Y4, Y13, Y13; \
	VPSLLDQ  $8, Y13, Y14; \
	VPADDQ   Y14, Y13, Y13; /* a, a+b, c, c+d */ \
	VPERMQ   $0x50, Y13, Y14; \
	VPBLENDD $0x0F, Y8, Y14, Y14; /* 0, 0, a+b, a+b */ \
	VPADDQ   Y14, Y13, Y13; \
	VPERMQ   $0xFF, Y13, Y14; /* the block's sum */ \
	VPADDQ   Y5, Y13, Y13; \
	VPCMPGTQ Y13, Y5, Y15; \
	VPOR     Y15, Y7, Y7; \
	VPADDQ   Y14, Y5, Y5

// BITS maps the keys in Y13 back to float64 bits: a negative key has
// every bit but its sign flipped.
#define BITS \
	VPCMPGTQ Y13, Y8, Y14; \
	VPSRLQ   $1, Y14, Y14; \
	VPXOR    Y14, Y13, Y13

// func ascendingGapsAVX2(dst []float64, src []byte, width uint, plan *gapPlan) (ok bool)
//
// dst[0] holds the first value. (len(dst)−1)/8 passes of eight gaps at
// width 0 … 57, which take exactly width bytes: gap j of a pass starts at
// its byte ⌊j·width/8⌋, the plan's shuffle controls and shifts for that
// width place the four of each block in their lanes, and src advances by
// width bytes a pass. The keys are summed as signed integers — a value's
// bits with every bit but the sign flipped when it is negative — which
// order as the values do and wrap where OrderKey's keys wrap past 2⁶⁴, so
// BITS maps every key, wrapped or not, to the bits the Go loop gives. It
// reports whether no key wrapped.
TEXT ·ascendingGapsAVX2(SB), NOSPLIT, $0-65
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ width+48(FP), BX
	MOVQ plan+56(FP), DX
	MOVB $1, ok+64(FP)
	DECQ CX
	SHRQ $3, CX
	JZ   done
	MOVQ 128(DX), R8    // the byte of gap 2 (block A's controls at 0 and
	                    // shifts at 64, block B's at 32 and 96)
	MOVQ 136(DX), R9    // of gap 4
	MOVQ 144(DX), R10   // of gap 6
	VPCMPEQQ Y4, Y4, Y4 // ones
	VPXOR    Y8, Y8, Y8 // zero
	VPXOR    Y7, Y7, Y7 // no key wrapped yet
	VMOVQ    BX, X2
	VPBROADCASTQ X2, Y2
	VPSLLVQ  Y2, Y4, Y2
	VPXOR    Y4, Y2, Y2 // the low width bits
	MOVQ (DI), AX
	MOVQ AX, R11
	SARQ $63, R11
	SHRQ $1, R11
	XORQ R11, AX // the first value's key
	VMOVQ AX, X5
	VPBROADCASTQ X5, Y5 // the carried key
loop:
	GAPS((SI), (SI)(R8*1), 0(DX), 64(DX))
	BITS
	VMOVDQU  Y13, 8(DI)
	GAPS((SI)(R9*1), (SI)(R10*1), 32(DX), 96(DX))
	BITS
	VMOVDQU  Y13, 40(DI)
	ADDQ BX, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  loop
	VPTEST Y7, Y7
	SETEQ ok+64(FP)
	VZEROUPPER
done:
	RET

// func unpackAVX2(dst []uint32, src []byte, width uint)
//
// len(dst)/8 blocks of eight items at width 1 … 25. Item j of block b sits
// at bit 8b·width + j·width: lane j loads the dword at byte b·width +
// ⌊j·width/8⌋, shifts it right by (j·width) mod 8 and masks width bits.
TEXT ·unpackAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ width+48(FP), BX
	SHRQ $3, CX
	JZ   done
	VMOVQ BX, X0
	VPBROADCASTD X0, Y0 // width
	VMOVDQU lanes<>(SB), Y4
	VPMULLD Y0, Y4, Y4 // j·width
	VPSRLD  $3, Y4, Y1 // the byte offsets
	VPCMPEQD Y5, Y5, Y5
	VPSRLD  $29, Y5, Y6 // 7
	VPAND   Y6, Y4, Y2 // the shifts
	VPSLLVD Y0, Y5, Y3
	VPXOR   Y5, Y3, Y3 // the low width bits
loop:
	VPCMPEQD Y6, Y6, Y6 // load every lane: the gather clears its mask
	VPXOR    Y7, Y7, Y7
	VPGATHERDD Y6, (SI)(Y1*1), Y7
	VPSRLVD  Y2, Y7, Y7
	VPAND    Y3, Y7, Y7
	VMOVDQU  Y7, (DI)
	ADDQ BX, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop
	VZEROUPPER
done:
	RET

// func memberMasksAVX2(masks []uint8, ids []uint32, set []uint32, top uint32) (maxID uint32)
//
// len(ids)/8 mask bytes: bit b of byte j is the set bit of min(ids[8j+b],
// top). The ids themselves, unclamped, feed the running maximum.
TEXT ·memberMasksAVX2(SB), NOSPLIT, $0-84
	MOVQ masks_base+0(FP), DI
	MOVQ ids_base+24(FP), SI
	MOVQ ids_len+32(FP), CX
	MOVQ set_base+48(FP), DX
	MOVL $0, maxID+80(FP)
	SHRQ $3, CX
	JZ   done
	MOVL top+72(FP), AX
	VMOVD AX, X8
	VPBROADCASTD X8, Y8
	VPCMPEQD Y10, Y10, Y10
	VPSRLD   $27, Y10, Y10 // 31
	VPXOR    Y9, Y9, Y9    // the largest id so far
loop:
	VMOVDQU (SI), Y0
	VPMAXUD Y0, Y9, Y9
	VPMINUD Y8, Y0, Y0 // clamp before indexing: no load leaves set
	VPSRLD  $5, Y0, Y1 // the word
	VPAND   Y10, Y0, Y2 // the bit
	VPCMPEQD Y3, Y3, Y3
	VPXOR    Y4, Y4, Y4
	VPGATHERDD Y3, (DX)(Y1*4), Y4
	VPSRLVD Y2, Y4, Y4
	VPSLLD  $31, Y4, Y4 // the member bit to the sign
	VMOVMSKPS Y4, AX
	MOVB AX, (DI)
	ADDQ $32, SI
	INCQ DI
	DECQ CX
	JNZ  loop
	VEXTRACTI128 $1, Y9, X0
	VPMAXUD X0, X9, X9
	VPSHUFD $0x4E, X9, X0
	VPMAXUD X0, X9, X9
	VPSHUFD $0xB1, X9, X0
	VPMAXUD X0, X9, X9
	VMOVD   X9, AX
	MOVL AX, maxID+80(FP)
	VZEROUPPER
done:
	RET
