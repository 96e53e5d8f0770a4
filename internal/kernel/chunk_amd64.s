#include "textflag.h"

// The vector bodies of the three chunk kernels (DESIGN.md §17, Vector
// bodies), under the rules of strip_amd64.s: unaligned loads and stores,
// nothing read or written past what the Go wrapper hands over, VEX
// encoding only, VZEROUPPER before returning from 256-bit code. The two
// gathers read only inside their base slice: Unpack's caller passes just
// the blocks whose every load ends inside src, and MemberMasks clamps each
// id into set before it becomes an index.

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

// func ascendingIntoAVX2(dst []float64, src []byte) (ok bool)
//
// Copies the first 4·⌊(len(dst)−1)/4⌋ values and checks each of them
// against the value after it, the first against −∞; the value after the
// last block is read, not stored.
TEXT ·ascendingIntoAVX2(SB), NOSPLIT, $0-49
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVB $1, ok+48(FP)
	DECQ CX
	JLE  done
	SHRQ $2, CX
	JZ   done
	MOVQ $0xFFF0000000000000, AX
	VMOVQ AX, X1
	VPBROADCASTQ X1, Y1 // −∞
	VBROADCASTSD (SI), Y0
	VCMPPD $30, Y1, Y0, Y15 // GT_OQ: the first value > −∞
loop:
	VMOVUPD 8(SI), Y1 // values i+1 … i+4
	VMOVUPD (SI), Y0  // values i … i+3
	VCMPPD  $30, Y0, Y1, Y1 // GT_OQ: each above the one before, false next to a NaN
	VANDPD  Y1, Y15, Y15
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop
	VMOVMSKPD Y15, AX
	CMPQ AX, $15
	SETEQ ok+48(FP)
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
