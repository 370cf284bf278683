#include "textflag.h"

// The DotRows kernel: each of a YMM accumulator's eight lanes is one
// row. Per four columns j..j+3, q[j+k] is broadcast to every lane, the
// 8x4 block of the rows is transposed so that one register holds column
// j+k of all eight rows, and each column is multiplied (VMULPS) and then
// added (VADDPS) into the accumulator, k ascending: every lane performs
// Dot's sequence sum = sum + q[j]*row[j] with Dot's two roundings per
// term. No FMA.
//
// A group's rows 0-3 load into the low 128-bit halves and rows 4-7 into
// the high halves, so the in-lane 4x4 transpose (VUNPCKLPS/VUNPCKHPS,
// then VSHUFPS) leaves lane r of column k holding row r's element.

// LOADT transposes the 8x4 block of columns j..j+3 of rows 0-3 (lo
// points at row 0's column j) and rows 4-7 (hi, at row 4's), with DX
// one row's stride in bytes and BX three: Y2..Y5 end as the columns.
#define LOADT(lo, hi) \
	VMOVUPS     (lo), X2; \
	VINSERTF128 $1, (hi), Y2, Y2; \
	VMOVUPS     (lo)(DX*1), X3; \
	VINSERTF128 $1, (hi)(DX*1), Y3, Y3; \
	VMOVUPS     (lo)(DX*2), X4; \
	VINSERTF128 $1, (hi)(DX*2), Y4, Y4; \
	VMOVUPS     (lo)(BX*1), X5; \
	VINSERTF128 $1, (hi)(BX*1), Y5, Y5; \
	VUNPCKLPS   Y3, Y2, Y6; \
	VUNPCKHPS   Y3, Y2, Y7; \
	VUNPCKLPS   Y5, Y4, Y8; \
	VUNPCKHPS   Y5, Y4, Y9; \
	VSHUFPS     $0x44, Y8, Y6, Y2; \
	VSHUFPS     $0xEE, Y8, Y6, Y3; \
	VSHUFPS     $0x44, Y9, Y7, Y4; \
	VSHUFPS     $0xEE, Y9, Y7, Y5

// ACCUM adds the four columns in Y2..Y5, times the broadcast q[j..j+3]
// in Y12..Y15, into acc one column at a time.
#define ACCUM(acc) \
	VMULPS Y12, Y2, Y2; \
	VADDPS Y2, acc, acc; \
	VMULPS Y13, Y3, Y3; \
	VADDPS Y3, acc, acc; \
	VMULPS Y14, Y4, Y4; \
	VADDPS Y4, acc, acc; \
	VMULPS Y15, Y5, Y5; \
	VADDPS Y5, acc, acc

// BCASTQ broadcasts q[j..j+3], at R13, into Y12..Y15.
#define BCASTQ \
	VBROADCASTSS (R13), Y12; \
	VBROADCASTSS 4(R13), Y13; \
	VBROADCASTSS 8(R13), Y14; \
	VBROADCASTSS 12(R13), Y15

// func dotRowsAVX(q, rows, out []float32)
//
// out[i] = Dot(q, row i) for len(out) rows of len(q) columns. The caller
// guarantees len(q) > 0 and a multiple of four, len(out) a multiple of
// eight, and len(rows) = len(out)*len(q). Two groups of eight rows run
// at once so that their add chains overlap; a last single group follows.
TEXT ·dotRowsAVX(SB), NOSPLIT, $0-72
	MOVQ q_base+0(FP), AX
	MOVQ q_len+8(FP), DX
	MOVQ rows_base+24(FP), SI
	MOVQ out_base+48(FP), DI
	MOVQ out_len+56(FP), R10
	SHLQ $2, DX                // one row's stride in bytes
	LEAQ (DX)(DX*2), BX        // three rows' stride
	LEAQ (AX)(DX*1), CX        // end of q

pairs:
	CMPQ   R10, $16
	JLT    single
	MOVQ   SI, R8              // rows 0-3
	LEAQ   (SI)(DX*4), R9      // rows 4-7
	LEAQ   (R9)(DX*4), R11     // rows 8-11
	LEAQ   (R11)(DX*4), R12    // rows 12-15
	MOVQ   AX, R13
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

pairloop:
	BCASTQ
	LOADT(R8, R9)
	ACCUM(Y0)
	LOADT(R11, R12)
	ACCUM(Y1)
	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $16, R11
	ADDQ $16, R12
	ADDQ $16, R13
	CMPQ R13, CX
	JLT  pairloop

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    $64, DI
	LEAQ    (SI)(DX*8), SI
	LEAQ    (SI)(DX*8), SI
	SUBQ    $16, R10
	JMP     pairs

single:
	CMPQ   R10, $8
	JLT    done
	MOVQ   SI, R8
	LEAQ   (SI)(DX*4), R9
	MOVQ   AX, R13
	VXORPS Y0, Y0, Y0

singleloop:
	BCASTQ
	LOADT(R8, R9)
	ACCUM(Y0)
	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $16, R13
	CMPQ R13, CX
	JLT  singleloop

	VMOVUPS Y0, (DI)

done:
	VZEROUPPER
	RET

// func cpuidAVX() bool
//
// CPUID.1:ECX reports OSXSAVE (bit 27) and AVX (bit 28); XGETBV's XCR0
// must then show the OS saving both XMM (bit 1) and YMM (bit 2) state.
TEXT ·cpuidAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET
