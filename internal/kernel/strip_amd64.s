#include "textflag.h"

// The vector bodies of the three strip kernels (DESIGN.md §17, Vector
// bodies). Each covers len/4 blocks of four float64 and leaves the 0-3
// remaining elements to the Go loop. VSUBPD, VMULPD and VADDPD round each
// lane as SUBSD, MULSD and ADDSD do; an FMA rounds once where those round
// twice and must never appear here. Loads and stores are unaligned, and
// nothing is read or written past the last whole block.

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

// func countBelowAVX2(cnt []int32, v, thr []float64)
TEXT ·countBelowAVX2(SB), NOSPLIT, $0-72
	MOVQ cnt_base+0(FP), DI
	MOVQ v_base+24(FP), SI
	MOVQ v_len+32(FP), CX
	MOVQ thr_base+48(FP), DX
	SHRQ $2, CX
	JZ   done
loop:
	VMOVUPD (SI), Y0
	VCMPPD  $1, (DX), Y0, Y0 // LT_OS: v < thr, false next to any NaN; -1 or 0 per lane
	VEXTRACTF128 $1, Y0, X1
	VSHUFPS $0x88, X1, X0, X0 // the low dword of each of the four masks
	VMOVDQU (DI), X2
	VPSUBD  X0, X2, X2 // cnt - (-1)
	VMOVDQU X2, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $16, DI
	DECQ CX
	JNZ  loop
done:
	VZEROUPPER
	RET
