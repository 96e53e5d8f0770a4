#include "textflag.h"

// The vector bodies of the five strip kernels (DESIGN.md §17, Vector
// bodies). The three element-wise ones cover len/4 blocks of four float64
// and leave the 0-3 remaining elements to the Go loop; the majority count
// covers the whole groups of four points, and the selection takes one group
// of four lanes per call. VSUBPD, VMULPD, VADDPD and VDIVPD round each lane
// as SUBSD, MULSD, ADDSD and DIVSD do; an FMA rounds once where a multiply
// and an add round twice and must never appear here. Loads and stores are unaligned, and nothing is
// read or written past the last whole block. Every instruction that touches
// an X or Y register is VEX-encoded (TestVectorBodiesAreVEX): one legacy-SSE
// instruction between 256-bit ones costs a state transition or a false
// dependency on every execution.

// func detectAVX2() bool
TEXT ·detectAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $0, AX
	CPUID
	CMPL AX, $7 // highest basic leaf
	JLT  no
	MOVL $1, AX
	CPUID
	BTL  $27, CX // OSXSAVE: XGETBV is usable
	JCC  no
	MOVL $0, CX
	XGETBV
	ANDL $6, AX // XCR0 bits 1-2: the OS saves XMM and YMM state
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	BTL  $5, BX // AVX2
	SETCS ret+0(FP)
no:
	RET

// func addSquaredDiffAVX2(dst, q []float64, v float64)
TEXT ·addSquaredDiffAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ q_base+24(FP), SI
	MOVQ q_len+32(FP), CX
	VBROADCASTSD v+48(FP), Y0
	SHRQ $2, CX
	JZ   done
loop:
	VSUBPD  (SI), Y0, Y1 // v - q, v the first source
	VMULPD  Y1, Y1, Y1
	VADDPD  (DI), Y1, Y1 // the term the first source, as in ADDSD mem, reg
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop
done:
	VZEROUPPER
	RET

// func squaredDiffIntoAVX2(dst, q []float64, v float64)
TEXT ·squaredDiffIntoAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ q_base+24(FP), SI
	MOVQ q_len+32(FP), CX
	VBROADCASTSD v+48(FP), Y0
	SHRQ $2, CX
	JZ   done
loop:
	VSUBPD  (SI), Y0, Y1
	VMULPD  Y1, Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop
done:
	VZEROUPPER
	RET

// func scaleIntoAVX2(dst, src []float64, scale float64)
TEXT ·scaleIntoAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	VBROADCASTSD scale+48(FP), Y0
	SHRQ $2, CX
	JZ   done
loop:
	VMOVUPD (SI), Y1
	VDIVPD  Y0, Y1, Y1 // src / scale, src the first source, as in DIVSD
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop
done:
	VZEROUPPER
	RET

// DIST leaves in Y0 and Y1 the squared distances from the training row at
// AX to the two groups of four staged queries at SI and BX (column d at
// d·R8 bytes further on), dimensions ascending as stripDistances computes
// them: (v − q)², then (v − q)² + acc. It writes Y0-Y3 only. R9 holds
// dims − 1 and AX ends on the next row. The two labels make each use's
// dimension loop its own.
#define DIST(dim, last) \
	VBROADCASTSD (AX), Y2; \
	VSUBPD  (SI), Y2, Y0; \
	VSUBPD  (BX), Y2, Y1; \
	VMULPD  Y0, Y0, Y0; \
	VMULPD  Y1, Y1, Y1; \
	XORQ    CX, CX; \
	MOVQ    R9, DX; \
	TESTQ   DX, DX; \
	JZ      last; \
dim: \
	ADDQ    $8, AX; \
	ADDQ    R8, CX; \
	VBROADCASTSD (AX), Y2; \
	VSUBPD  (SI)(CX*1), Y2, Y3; \
	VMULPD  Y3, Y3, Y3; \
	VADDPD  Y0, Y3, Y0; /* the term the first source, as in AddSquaredDiff */ \
	VSUBPD  (BX)(CX*1), Y2, Y3; \
	VMULPD  Y3, Y3, Y3; \
	VADDPD  Y1, Y3, Y1; \
	DECQ    DX; \
	JNZ     dim; \
last: \
	ADDQ    $8, AX

// func majorityNearerAVX2(masks []uint8, qs []float64, w, dims int, pos []float64, npos int, neg []float64, nneg, need1, need2, need3 int)
//
// Points 0 … 4·⌊w/4⌋−1, two groups of four a pass, the last whole group
// alone when their number is odd (BX then reads the same queries as SI, and
// only the first group's byte is stored). Per lane and level j the j-th
// nearest positive, kept by a min/max network: slot j becomes min(max(slot
// j−1, d), slot j), slot 1 min(d, slot 1), the slots updated last to first.
// Both return their second source next to a NaN (the first operand as Go
// lists them): the max puts d there, so a NaN d reaches the min, which puts
// the slot there and keeps it — no slot ever holds a NaN. Then each negative row strictly nearer than slot j
// (VCMPPD LT_OS, false next to a NaN) adds −1 to level j's counter, which
// starts at need_j − 1 and is negative once the level is met, so a lane is
// settled when the AND of its three counters has the sign bit. After every
// negative row the pass stops if all eight lanes of both groups are; if
// all four of one group's are, that group's byte is stored and the other
// goes on alone, in the second group's registers: the counts only grow, so
// no later row changes a settled lane's mask.
//
// Registers: slots Y4/Y5, Y6/Y7, Y9/Y10 (level 1, 2, 3; group 1/group 2),
// counters Y11/Y12, Y13/Y14, Y8/Y15; Y0-Y3 are DIST's and the scratch.
TEXT ·majorityNearerAVX2(SB), NOSPLIT, $0-152
	MOVQ masks_base+0(FP), DI
	MOVQ qs_base+24(FP), SI
	MOVQ w+48(FP), R12
	MOVQ R12, R8
	SHLQ $3, R8 // the column stride in bytes
	SHRQ $2, R12 // whole groups left
	JZ   done
	MOVQ dims+56(FP), R9
	DECQ R9
group:
	LEAQ 32(SI), BX
	CMPQ R12, $1
	JNE  positives
	MOVQ SI, BX
positives:
	MOVQ $0x7FF0000000000000, AX
	VMOVQ AX, X4
	VPBROADCASTQ X4, Y4 // +Inf: no positive yet at any level
	VMOVDQA Y4, Y5
	VMOVDQA Y4, Y6
	VMOVDQA Y4, Y7
	VMOVDQA Y4, Y9
	VMOVDQA Y4, Y10
	MOVQ pos_base+64(FP), AX
	MOVQ npos+88(FP), R13
	TESTQ R13, R13
	JZ   negatives
posrow:
	DIST(posdim, poslast)
	VMAXPD Y0, Y6, Y2 // slot 2 > d ? slot 2 : d, so a NaN d stays NaN
	VMINPD Y9, Y2, Y9 // that < slot 3 ? that : slot 3, so a NaN keeps slot 3
	VMAXPD Y0, Y4, Y2
	VMINPD Y6, Y2, Y6
	VMINPD Y4, Y0, Y4 // d < slot 1 ? d : slot 1
	VMAXPD Y1, Y7, Y3
	VMINPD Y10, Y3, Y10
	VMAXPD Y1, Y5, Y3
	VMINPD Y7, Y3, Y7
	VMINPD Y5, Y1, Y5
	DECQ R13
	JNZ  posrow
negatives:
	VPCMPEQQ Y2, Y2, Y2 // −1 in every lane
	VPBROADCASTQ need1+128(FP), Y11
	VPADDQ Y2, Y11, Y11 // need − 1
	VMOVDQA Y11, Y12
	VPBROADCASTQ need2+136(FP), Y13
	VPADDQ Y2, Y13, Y13
	VMOVDQA Y13, Y14
	VPBROADCASTQ need3+144(FP), Y8
	VPADDQ Y2, Y8, Y8
	VMOVDQA Y8, Y15
	MOVQ neg_base+96(FP), AX
	MOVQ nneg+120(FP), R13
	TESTQ R13, R13
	JZ   store
negrow:
	DIST(negdim, neglast)
	VCMPPD $1, Y4, Y0, Y2 // LT_OS: d < slot; −1 or 0 per lane
	VPADDQ Y2, Y11, Y11
	VCMPPD $1, Y6, Y0, Y2
	VPADDQ Y2, Y13, Y13
	VCMPPD $1, Y9, Y0, Y2
	VPADDQ Y2, Y8, Y8
	VCMPPD $1, Y5, Y1, Y3
	VPADDQ Y3, Y12, Y12
	VCMPPD $1, Y7, Y1, Y3
	VPADDQ Y3, Y14, Y14
	VCMPPD $1, Y10, Y1, Y3
	VPADDQ Y3, Y15, Y15
	VPAND Y11, Y13, Y0
	VPAND Y8, Y0, Y0 // the first group's lanes settled: the sign bits
	VPAND Y12, Y14, Y1
	VPAND Y15, Y1, Y1
	VMOVMSKPD Y0, CX
	VMOVMSKPD Y1, DX
	DECQ R13
	JZ   store // no row left
	CMPQ CX, $15
	JEQ  firstsettled
	CMPQ DX, $15
	JNE  negrow
	MOVB DX, 1(DI) // the second group settled: the first goes on alone
	VMOVDQA Y4, Y5
	VMOVDQA Y6, Y7
	VMOVDQA Y9, Y10
	VMOVDQA Y11, Y12
	VMOVDQA Y13, Y14
	VMOVDQA Y8, Y15
	MOVQ SI, BX
	MOVQ DI, R10 // where its byte goes
	JMP  lone
firstsettled:
	CMPQ DX, $15
	JEQ  store // every lane of both groups settled
	MOVB CX, (DI) // the first group settled: the second goes on alone
	LEAQ 1(DI), R10
lone:
	// One group, queries at BX, slots Y5/Y7/Y10, counters Y12/Y14/Y15: the
	// second group's half of DIST and of the count.
	VBROADCASTSD (AX), Y2
	VSUBPD  (BX), Y2, Y1
	VMULPD  Y1, Y1, Y1
	XORQ    CX, CX
	MOVQ    R9, DX
	TESTQ   DX, DX
	JZ      lonelast
lonedim:
	ADDQ    $8, AX
	ADDQ    R8, CX
	VBROADCASTSD (AX), Y2
	VSUBPD  (BX)(CX*1), Y2, Y3
	VMULPD  Y3, Y3, Y3
	VADDPD  Y1, Y3, Y1
	DECQ    DX
	JNZ     lonedim
lonelast:
	ADDQ    $8, AX
	VCMPPD $1, Y5, Y1, Y3
	VPADDQ Y3, Y12, Y12
	VCMPPD $1, Y7, Y1, Y3
	VPADDQ Y3, Y14, Y14
	VCMPPD $1, Y10, Y1, Y3
	VPADDQ Y3, Y15, Y15
	VPAND Y12, Y14, Y1
	VPAND Y15, Y1, Y1
	VMOVMSKPD Y1, CX
	CMPQ CX, $15
	JEQ  lonestore // settled
	DECQ R13
	JNZ  lone
lonestore:
	MOVB CX, (R10)
	JMP  next
store:
	VPAND Y11, Y13, Y0
	VPAND Y8, Y0, Y0
	VMOVMSKPD Y0, CX
	MOVB CX, (DI)
	CMPQ R12, $1
	JEQ  done
	VPAND Y12, Y14, Y1
	VPAND Y15, Y1, Y1
	VMOVMSKPD Y1, CX
	MOVB CX, 1(DI)
next:
	ADDQ $2, DI
	ADDQ $64, SI
	SUBQ $2, R12
	JNZ  group
done:
	VZEROUPPER
	RET

// func selectLanesAVX2(d2 []float64, w, rows, k int, lists []uint64) (odd int)
//
// A k-slot list per lane for lanes 0-3 of d2, row r at d2[r*w:]: on return
// lists[4j+l] holds the bit pattern of lane l's j-th smallest value and
// lists[4k+4j+l] its row. Over +0 ... +Inf the int64 order of the bit
// patterns is the float64 order, and equal bits are equal floats; a lane that
// meets anything else (a sign bit, a NaN) gets bit l of odd and a list that
// means nothing.
TEXT ·selectLanesAVX2(SB), NOSPLIT, $0-80
	MOVQ d2_base+0(FP), SI
	MOVQ w+24(FP), R8
	SHLQ $3, R8 // the row stride in bytes
	MOVQ rows+32(FP), CX
	MOVQ k+40(FP), DX
	MOVQ lists_base+48(FP), DI
	MOVQ DX, R9
	SHLQ $5, R9
	ADDQ DI, R9 // the rows' half of lists
	MOVQ $0x7FFFFFFFFFFFFFFF, AX
	VMOVQ AX, X15
	VPBROADCASTQ X15, Y15 // an empty slot: above +Inf, so every lane's first k rows enter
	MOVQ $0x7FF0000000000000, AX
	VMOVQ AX, X14
	VPBROADCASTQ X14, Y14 // +Inf
	MOVQ $1, AX
	VMOVQ AX, X11
	VPBROADCASTQ X11, Y11
	VPXOR Y12, Y12, Y12 // the row index r, in every lane
	VPXOR Y13, Y13, Y13 // sign bit set: the lane met a value outside [+0, +Inf]
	MOVQ DI, AX
	MOVQ DX, R10
empty:
	VMOVDQU Y15, (AX)
	ADDQ $32, AX
	DECQ R10
	JNZ  empty
row:
	VMOVDQU (SI), Y0 // the candidates c
	VPCMPGTQ Y14, Y0, Y1 // c > +Inf: a NaN without its sign bit
	VPOR Y1, Y13, Y13
	VPOR Y0, Y13, Y13 // c's own sign bit
	// A candidate c below slot j's value is below every later slot's too, so
	// the slots it moves form a suffix: slot j takes c where c is below it
	// and not below slot j-1, slot j-1's old entry where c is below both,
	// and keeps its own where c is not below it. Equal is not below: a tie
	// lands after the held entry, whose row is smaller. The rows follow that
	// mask; the values need none, slot j's new one being min(old j,
	// max(old j-1, c)). VMAXPD and VMINPD return their second source next to
	// a NaN, which the empty slot's pattern is: max(c, empty) is empty, and
	// min(empty, x) is x (an empty slot j-1 has an empty slot j after it).
	VPXOR Y9, Y9, Y9 // slot j-1's old value, +0 before slot 0
	VMOVDQA Y12, Y3
	MOVQ DI, AX
	MOVQ R9, BX
	MOVQ DX, R10
slot:
	VMOVDQU (AX), Y4
	VMOVDQU (BX), Y5
	VPCMPGTQ Y0, Y4, Y6 // slot j's value > c
	VMAXPD Y9, Y0, Y7 // c > old j-1 ? c : old j-1
	VMINPD Y7, Y4, Y7 // old j < that ? old j : that
	VBLENDVPD Y6, Y3, Y5, Y8
	VMOVDQU Y7, (AX)
	VMOVDQU Y8, (BX)
	VBLENDVPD Y6, Y5, Y12, Y3 // slot j+1 takes slot j's old entry where c was below it
	VMOVDQA Y4, Y9
	ADDQ $32, AX
	ADDQ $32, BX
	DECQ R10
	JNZ  slot
	VPADDQ Y11, Y12, Y12
	ADDQ R8, SI
	DECQ CX
	JNZ  row
	VMOVMSKPD Y13, AX
	MOVQ AX, odd+72(FP)
	VZEROUPPER
	RET
