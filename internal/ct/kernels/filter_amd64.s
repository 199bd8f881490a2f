#include "textflag.h"

// AVX2 tier of the filter's two data-moving kernels. Both only move and
// multiply: the weighting performs CosineWeightPair's two float32
// multiplies per element, and the store copies bits.

// func cosineWeightPairLEAVX2(dst []complex64, src0 []byte, cos0 []float32, src1 []byte, cos1 []float32)
//
// Eight elements per iteration: the two payload rows load at any byte
// alignment, multiply by their cosines, and interleave into four complex64
// (re from row 0, im from row 1). len(cos0) must be a multiple of 8; the
// other operands hold at least as many elements.
TEXT ·cosineWeightPairLEAVX2(SB), NOSPLIT, $0-120
	MOVQ  dst_base+0(FP), DI
	MOVQ  src0_base+24(FP), SI
	MOVQ  cos0_base+48(FP), R8
	MOVQ  cos0_len+56(FP), CX
	MOVQ  src1_base+72(FP), R9
	MOVQ  cos1_base+96(FP), R10
	SHLQ  $2, CX
	XORQ  AX, AX
	TESTQ CX, CX
	JZ    cwdone

cwloop:
	VMOVUPS    (SI)(AX*1), Y0
	VMULPS     (R8)(AX*1), Y0, Y0  // x0·cos0
	VMOVUPS    (R9)(AX*1), Y1
	VMULPS     (R10)(AX*1), Y1, Y1 // x1·cos1
	VUNPCKLPS  Y1, Y0, Y2          // elements 0, 1 | 4, 5
	VUNPCKHPS  Y1, Y0, Y3          // elements 2, 3 | 6, 7
	VPERM2F128 $0x20, Y3, Y2, Y4   // elements 0–3
	VPERM2F128 $0x31, Y3, Y2, Y5   // elements 4–7
	VMOVUPS    Y4, (DI)(AX*2)
	VMOVUPS    Y5, 32(DI)(AX*2)
	ADDQ       $32, AX
	CMPQ       AX, CX
	JLT        cwloop

	VZEROUPPER

cwdone:
	RET

// TRANSPOSE4(A, B, C, D) transposes four rows of four complex64 held in
// A–D: on return A holds element 0 of each row, B element 1, and so on.
#define TRANSPOSE4(A, B, C, D) \
	VUNPCKLPD  B, A, Y8; \
	VUNPCKHPD  B, A, Y9; \
	VUNPCKLPD  D, C, Y10; \
	VUNPCKHPD  D, C, Y11; \
	VPERM2F128 $0x20, Y10, Y8, A; \
	VPERM2F128 $0x20, Y11, Y9, B; \
	VPERM2F128 $0x31, Y10, Y8, C; \
	VPERM2F128 $0x31, Y11, Y9, D

// func transposePairs8AVX2(dst []float32, stride int, src []complex64, l, nu int)
//
// Eight pairs l complex64 apart, four columns per iteration: each pair's
// four columns load into one register, two 4×4 transposes turn the eight
// registers into four columns of eight pairs, and each column is stored as
// one 64-byte run at dst + u·4·stride. nu must be a multiple of 4.
//
// When dst and the column step are 32-byte aligned (Nv a multiple of 8 on
// a pooled block) the runs go out as non-temporal stores: each fills a
// whole line, so the line is never read for ownership, and the block is
// next read by back-projection on up to R ranks a batch later, from memory
// anyway. At the 512² projection_heavy shape this took core.Run from ≈ 300
// to ≈ 255 ms on a 2-core AVX2 host. SFENCE orders the stores before the
// block is handed on.
TEXT ·transposePairs8AVX2(SB), NOSPLIT, $0-72
	MOVQ  dst_base+0(FP), DI
	MOVQ  stride+24(FP), R8
	SHLQ  $2, R8             // column step, bytes
	LEAQ  (R8)(R8*2), R9     // three columns
	MOVQ  src_base+32(FP), SI
	MOVQ  l+56(FP), R10
	SHLQ  $3, R10            // pair step, bytes
	LEAQ  (R10)(R10*2), R11  // three pairs
	LEAQ  (SI)(R10*4), R12   // pair 4
	MOVQ  nu+64(FP), CX
	SHRQ  $2, CX
	TESTQ CX, CX
	JZ    tpdone
	MOVQ  DI, AX
	ORQ   R8, AX
	TESTQ $31, AX
	JNZ   tploop

tpntloop:
	VMOVUPS (SI), Y0
	VMOVUPS (SI)(R10*1), Y1
	VMOVUPS (SI)(R10*2), Y2
	VMOVUPS (SI)(R11*1), Y3
	VMOVUPS (R12), Y4
	VMOVUPS (R12)(R10*1), Y5
	VMOVUPS (R12)(R10*2), Y6
	VMOVUPS (R12)(R11*1), Y7
	TRANSPOSE4(Y0, Y1, Y2, Y3)
	TRANSPOSE4(Y4, Y5, Y6, Y7)
	VMOVNTPS Y0, (DI)
	VMOVNTPS Y4, 32(DI)
	VMOVNTPS Y1, (DI)(R8*1)
	VMOVNTPS Y5, 32(DI)(R8*1)
	VMOVNTPS Y2, (DI)(R8*2)
	VMOVNTPS Y6, 32(DI)(R8*2)
	VMOVNTPS Y3, (DI)(R9*1)
	VMOVNTPS Y7, 32(DI)(R9*1)
	ADDQ    $32, SI
	ADDQ    $32, R12
	LEAQ    (DI)(R8*4), DI
	DECQ    CX
	JNZ     tpntloop
	SFENCE
	VZEROUPPER
	RET

tploop:
	VMOVUPS (SI), Y0
	VMOVUPS (SI)(R10*1), Y1
	VMOVUPS (SI)(R10*2), Y2
	VMOVUPS (SI)(R11*1), Y3
	VMOVUPS (R12), Y4
	VMOVUPS (R12)(R10*1), Y5
	VMOVUPS (R12)(R10*2), Y6
	VMOVUPS (R12)(R11*1), Y7
	TRANSPOSE4(Y0, Y1, Y2, Y3)
	TRANSPOSE4(Y4, Y5, Y6, Y7)
	VMOVUPS Y0, (DI)
	VMOVUPS Y4, 32(DI)
	VMOVUPS Y1, (DI)(R8*1)
	VMOVUPS Y5, 32(DI)(R8*1)
	VMOVUPS Y2, (DI)(R8*2)
	VMOVUPS Y6, 32(DI)(R8*2)
	VMOVUPS Y3, (DI)(R9*1)
	VMOVUPS Y7, 32(DI)(R9*1)
	ADDQ    $32, SI
	ADDQ    $32, R12
	LEAQ    (DI)(R8*4), DI
	DECQ    CX
	JNZ     tploop

	VZEROUPPER

tpdone:
	RET
