#include "textflag.h"

// AVX2 tier of the radix-4 FFT passes: one routine per direction runs a
// whole pass — every block of 4q elements, k stepping by 4 — over four
// complex64 per YMM register. Each lane performs difFast's / ditFast's
// float32 operations in their order, with separate multiplies and adds (no
// FMA), so the result is bit-identical to the portable passes. The two
// smallest passes of a transform, whose quarters are shorter than a
// register, are fused into one routine each way (second half of the file).

// Sign bit on the even (real) floats: XORed into a broadcast s it gives
// (−s, s, −s, s, …), the vector that turns (im, re) into j·(re, im).
DATA negeven<>+0(SB)/4, $0x80000000
DATA negeven<>+4(SB)/4, $0
DATA negeven<>+8(SB)/4, $0x80000000
DATA negeven<>+12(SB)/4, $0
DATA negeven<>+16(SB)/4, $0x80000000
DATA negeven<>+20(SB)/4, $0
DATA negeven<>+24(SB)/4, $0x80000000
DATA negeven<>+28(SB)/4, $0
GLOBL negeven<>(SB), RODATA|NOPTR, $32

// Register plan, both passes:
//
//	SI, R11, R12, R13  the block's four quarters xa, xb, xc, xd
//	DX, R8, R9         the pass's twiddle runs w1, w2, w3
//	R10  q·8, the byte length of a quarter and of a run
//	AX   byte offset of k inside a quarter    DI  end of x
//	Y15  (−s, s, …)    Y0–Y7 butterfly    Y8–Y10 complex-multiply scratch

// QUARTERS points the register plan at the first block and the three
// twiddle runs, given x in SI, w in DX and q·8 in R10.
#define QUARTERS \
	LEAQ (SI)(R10*1), R11; \
	LEAQ (R11)(R10*1), R12; \
	LEAQ (R12)(R10*1), R13; \
	LEAQ (DX)(R10*1), R8; \
	LEAQ (R8)(R10*1), R9

// NEXTBLOCK moves the four quarter pointers one block (4q elements) on.
#define NEXTBLOCK \
	LEAQ (SI)(R10*4), SI; \
	LEAQ (R11)(R10*4), R11; \
	LEAQ (R12)(R10*4), R12; \
	LEAQ (R13)(R10*4), R13

// CMUL(X, W) multiplies the four complex64 in X by the four at W+AX, as the
// portable passes spell it out:
//
//	(xr·wr − xi·wi, xi·wr + xr·wi)
#define CMUL(X, W) \
	VMOVSLDUP  (W)(AX*1), Y8; \
	VMOVSHDUP  (W)(AX*1), Y9; \
	VPERMILPS  $0xB1, X, Y10; \
	VMULPS     Y8, X, X; \
	VMULPS     Y9, Y10, Y10; \
	VADDSUBPS  Y10, X, X

// QUARTERTURN(X) replaces X by j·X = (−s·xi, s·xr).
#define QUARTERTURN(X) \
	VPERMILPS  $0xB1, X, X; \
	VMULPS     Y15, X, X

// func difPassAVX2(x, w []complex64, q int, s float32)
TEXT ·difPassAVX2(SB), NOSPLIT, $0-60
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), DI
	LEAQ (SI)(DI*8), DI
	MOVQ w_base+24(FP), DX
	MOVQ q+48(FP), R10
	SHLQ $3, R10
	QUARTERS
	LEAQ (R13)(R10*1), AX
	CMPQ AX, DI
	JHI  difdone // no whole block
	VBROADCASTSS s+56(FP), Y15
	VXORPS negeven<>(SB), Y15, Y15

difblock:
	XORQ AX, AX

difk:
	VMOVUPS (SI)(AX*1), Y0
	VMOVUPS (R11)(AX*1), Y1
	VMOVUPS (R12)(AX*1), Y2
	VMOVUPS (R13)(AX*1), Y3
	VADDPS  Y2, Y0, Y4 // u0 = a0 + a2
	VADDPS  Y3, Y1, Y5 // u1 = a1 + a3
	VSUBPS  Y2, Y0, Y6 // v0 = a0 − a2
	VSUBPS  Y3, Y1, Y7 // a1 − a3
	QUARTERTURN(Y7)    // jv
	VADDPS  Y5, Y4, Y0 // u0 + u1
	VSUBPS  Y5, Y4, Y1 // u0 − u1
	VADDPS  Y7, Y6, Y2 // v0 + jv
	VSUBPS  Y7, Y6, Y3 // v0 − jv
	VMOVUPS Y0, (SI)(AX*1)
	CMUL(Y1, R8)
	VMOVUPS Y1, (R11)(AX*1)
	CMUL(Y2, DX)
	VMOVUPS Y2, (R12)(AX*1)
	CMUL(Y3, R9)
	VMOVUPS Y3, (R13)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, R10
	JLT     difk

	NEXTBLOCK
	CMPQ SI, DI
	JLO  difblock

	VZEROUPPER

difdone:
	RET

// func ditPassAVX2(x, w []complex64, q int, s float32)
TEXT ·ditPassAVX2(SB), NOSPLIT, $0-60
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), DI
	LEAQ (SI)(DI*8), DI
	MOVQ w_base+24(FP), DX
	MOVQ q+48(FP), R10
	SHLQ $3, R10
	QUARTERS
	LEAQ (R13)(R10*1), AX
	CMPQ AX, DI
	JHI  ditdone // no whole block
	VBROADCASTSS s+56(FP), Y15
	VXORPS negeven<>(SB), Y15, Y15

ditblock:
	XORQ AX, AX

ditk:
	VMOVUPS (SI)(AX*1), Y0
	VMOVUPS (R11)(AX*1), Y1
	VMOVUPS (R12)(AX*1), Y2
	VMOVUPS (R13)(AX*1), Y3
	CMUL(Y1, R8)       // t1 = a1·w2
	CMUL(Y2, DX)       // t2 = a2·w1
	CMUL(Y3, R9)       // t3 = a3·w3
	VADDPS  Y1, Y0, Y4 // u0 = a0 + t1
	VSUBPS  Y1, Y0, Y5 // v0 = a0 − t1
	VADDPS  Y3, Y2, Y6 // u1 = t2 + t3
	VSUBPS  Y3, Y2, Y7 // t2 − t3
	QUARTERTURN(Y7)    // jv
	VADDPS  Y6, Y4, Y0 // u0 + u1
	VADDPS  Y7, Y5, Y1 // v0 + jv
	VSUBPS  Y6, Y4, Y2 // u0 − u1
	VSUBPS  Y7, Y5, Y3 // v0 − jv
	VMOVUPS Y0, (SI)(AX*1)
	VMOVUPS Y1, (R11)(AX*1)
	VMOVUPS Y2, (R12)(AX*1)
	VMOVUPS Y3, (R13)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, R10
	JLT     ditk

	NEXTBLOCK
	CMPQ SI, DI
	JLO  ditblock

	VZEROUPPER

ditdone:
	RET

// The small end of a transform, fused. A pass whose quarters are shorter
// than a register cannot step k by 4, but its whole block fits in registers,
// so the two smallest passes run between one load and one store:
//
//   - even log₂n: block size 16 with twiddles, then the twiddle-free pass
//     over adjacent quads. The block's quarters are four registers, each
//     exactly one quad.
//   - odd log₂n: block size 8 with twiddles, then the radix-2 pass over
//     adjacent pairs. The block is two registers, P = (a0 | a1) and
//     Q = (a2 | a3), two k to a half.
//
//	SI   block    DI  end of x
//	Y8–Y13  the pass's twiddles as (re, re) and (im, im) pairs
//	Y15  (−s, s, …)    Y0–Y7 butterfly    Y14, Y4, Y5 scratch

// CMULR is CMUL with the twiddles already split into WRE and WIM.
#define CMULR(X, WRE, WIM) \
	VPERMILPS  $0xB1, X, Y14; \
	VMULPS     WRE, X, X; \
	VMULPS     WIM, Y14, Y14; \
	VADDSUBPS  Y14, X, X

// TURN(X, MASK) applies the quarter turn to the floats of X that MASK
// selects: $0xC0 the last complex64, $0xF0 the upper half.
#define TURN(X, MASK) \
	VPERMILPS  $0xB1, X, Y4; \
	VMULPS     Y15, Y4, Y4; \
	VBLENDPS   MASK, Y4, X, X

// HALVES(X) replaces X = (lo | hi) by (lo+hi | lo−hi), and PAIRS(X) replaces
// X = (a, b | c, d) by (a+b, a−b | c+d, c−d). Both come from one swapped copy
// of X: the sum from X + swapped, and the difference — wanted the other way
// round from where it lands — from swapped − X.
#define HALVES(X) \
	VPERM2F128 $0x01, X, X, Y4; \
	VADDPS     Y4, X, Y5; \
	VSUBPS     X, Y4, Y4; \
	VBLENDPS   $0xF0, Y4, Y5, X

#define PAIRS(X) \
	VPERMILPD  $0x5, X, Y4; \
	VADDPS     Y4, X, Y5; \
	VSUBPS     X, Y4, Y4; \
	VBLENDPS   $0xCC, Y4, Y5, X

// QUADDIF(X) is difFast's butterfly over the quad X = (a0, a1 | a2, a3):
//
//	(u0, u1 | v0, jv) = (a0+a2, a1+a3 | a0−a2, j·(a1−a3))
//	X = (u0+u1, u0−u1 | v0+jv, v0−jv)
#define QUADDIF(X) \
	HALVES(X); \
	TURN(X, $0xC0); \
	PAIRS(X)

// QUADDIT(X) is ditFast's butterfly over the quad X = (a0, a1 | a2, a3):
//
//	(u0, v0 | u1, jv) = (a0+a1, a0−a1 | a2+a3, j·(a2−a3))
//	X = (u0+u1, v0+jv | u0−u1, v0−jv)
#define QUADDIT(X) \
	PAIRS(X); \
	TURN(X, $0xC0); \
	HALVES(X)

// SMALLEND loads x, its end and w, and leaves through done when x holds no
// whole block of BYTES bytes. Y15 is set after it, from s, by each routine.
#define SMALLEND(BYTES, done) \
	MOVQ x_base+0(FP), SI; \
	MOVQ x_len+8(FP), DI; \
	LEAQ (SI)(DI*8), DI; \
	MOVQ w_base+24(FP), DX; \
	LEAQ BYTES(SI), AX; \
	CMPQ AX, DI; \
	JHI  done

// SPLIT12(W) loads the 12 twiddles w1 | w2 | w3 of a q = 4 pass at W into
// Y8–Y13.
#define SPLIT12(W) \
	VMOVSLDUP (W), Y8; \
	VMOVSHDUP (W), Y9; \
	VMOVSLDUP 32(W), Y10; \
	VMOVSHDUP 32(W), Y11; \
	VMOVSLDUP 64(W), Y12; \
	VMOVSHDUP 64(W), Y13

// SPLIT6(W) loads the 6 twiddles w1 | w2 | w3 of a q = 2 pass at W as the
// partners of P and Q: (· | w2) into Y8, Y9 and (w1 | w3) into Y10, Y11.
#define SPLIT6(W) \
	VMOVUPS    (W), Y12; \
	VMOVUPS    16(W), Y13; \
	VPERM2F128 $0x30, Y13, Y12, Y13; \
	VMOVSLDUP  Y12, Y8; \
	VMOVSHDUP  Y12, Y9; \
	VMOVSLDUP  Y13, Y10; \
	VMOVSHDUP  Y13, Y11

// SIGN(S) sets Y15 to (−s, s, …) from the float32 argument S.
#define SIGN(S) \
	VBROADCASTSS S, Y15; \
	VXORPS       negeven<>(SB), Y15, Y15

// The four small-end butterflies, on a block already in registers. Even
// log₂n: DIF16 and DIT16 transform the 16 elements in Y0–Y3 in place, with
// the twiddles in Y8–Y13. Odd log₂n: DIF8 and DIT8 transform the 8
// elements in Y0, Y1 into Y2, Y3, with the twiddles in Y8–Y11. Y15 holds
// (−s, s, …).
#define DIF16 \
	VADDPS  Y2, Y0, Y4; \
	VADDPS  Y3, Y1, Y5; \
	VSUBPS  Y2, Y0, Y6; \
	VSUBPS  Y3, Y1, Y7; \
	QUARTERTURN(Y7); \
	VADDPS  Y5, Y4, Y0; \
	VSUBPS  Y5, Y4, Y1; \
	VADDPS  Y7, Y6, Y2; \
	VSUBPS  Y7, Y6, Y3; \
	CMULR(Y1, Y10, Y11); \
	CMULR(Y2, Y8, Y9); \
	CMULR(Y3, Y12, Y13); \
	QUADDIF(Y0); \
	QUADDIF(Y1); \
	QUADDIF(Y2); \
	QUADDIF(Y3)

#define DIT16 \
	QUADDIT(Y0); \
	QUADDIT(Y1); \
	QUADDIT(Y2); \
	QUADDIT(Y3); \
	CMULR(Y1, Y10, Y11); \
	CMULR(Y2, Y8, Y9); \
	CMULR(Y3, Y12, Y13); \
	VADDPS  Y1, Y0, Y4; \
	VSUBPS  Y1, Y0, Y5; \
	VADDPS  Y3, Y2, Y6; \
	VSUBPS  Y3, Y2, Y7; \
	QUARTERTURN(Y7); \
	VADDPS  Y6, Y4, Y0; \
	VADDPS  Y7, Y5, Y1; \
	VSUBPS  Y6, Y4, Y2; \
	VSUBPS  Y7, Y5, Y3

// DIF8: (u0 | u1) and (v0 | a1 − a3); the quarter turn makes the second
// (v0 | jv); HALVES gives (u0 + u1 | u0 − u1) and (v0 + jv | v0 − jv).
#define DIF8 \
	VADDPS  Y1, Y0, Y2; \
	VSUBPS  Y1, Y0, Y3; \
	TURN(Y3, $0xF0); \
	HALVES(Y2); \
	HALVES(Y3); \
	CMULHIGH(Y2); \
	CMULR(Y3, Y10, Y11); \
	PAIRS(Y2); \
	PAIRS(Y3)

// DIT8: after PAIRS and the twiddles, (a0 | t1) and (t2 | t3); HALVES gives
// (u0 | v0) and (u1 | t2 − t3), the quarter turn (u1 | jv).
#define DIT8 \
	PAIRS(Y0); \
	PAIRS(Y1); \
	CMULHIGH(Y0); \
	CMULR(Y1, Y10, Y11); \
	HALVES(Y0); \
	HALVES(Y1); \
	TURN(Y1, $0xF0); \
	VADDPS  Y1, Y0, Y2; \
	VSUBPS  Y1, Y0, Y3

// CMULHIGH(X) multiplies the upper half of X by w2 and leaves the lower
// half, which has no twiddle, as it is.
#define CMULHIGH(X) \
	VMOVAPS    X, Y6; \
	CMULR(X, Y8, Y9); \
	VBLENDPS   $0x0F, Y6, X, X

// func difTail16AVX2(x, w []complex64, s float32)
TEXT ·difTail16AVX2(SB), NOSPLIT, $0-52
	SMALLEND(128, diftail16done)
	SIGN(s+48(FP))
	SPLIT12(DX)

diftail16:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	DIF16
	VMOVUPS Y0, (SI)
	VMOVUPS Y1, 32(SI)
	VMOVUPS Y2, 64(SI)
	VMOVUPS Y3, 96(SI)
	ADDQ    $128, SI
	CMPQ    SI, DI
	JLO     diftail16

	VZEROUPPER

diftail16done:
	RET

// func ditHead16AVX2(x, w []complex64, s float32)
TEXT ·ditHead16AVX2(SB), NOSPLIT, $0-52
	SMALLEND(128, dithead16done)
	SIGN(s+48(FP))
	SPLIT12(DX)

dithead16:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	DIT16
	VMOVUPS Y0, (SI)
	VMOVUPS Y1, 32(SI)
	VMOVUPS Y2, 64(SI)
	VMOVUPS Y3, 96(SI)
	ADDQ    $128, SI
	CMPQ    SI, DI
	JLO     dithead16

	VZEROUPPER

dithead16done:
	RET

// func difTail8AVX2(x, w []complex64, s float32)
TEXT ·difTail8AVX2(SB), NOSPLIT, $0-52
	SMALLEND(64, diftail8done)
	SIGN(s+48(FP))
	SPLIT6(DX)

diftail8:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	DIF8
	VMOVUPS Y2, (SI)
	VMOVUPS Y3, 32(SI)
	ADDQ    $64, SI
	CMPQ    SI, DI
	JLO     diftail8

	VZEROUPPER

diftail8done:
	RET

// func ditHead8AVX2(x, w []complex64, s float32)
TEXT ·ditHead8AVX2(SB), NOSPLIT, $0-52
	SMALLEND(64, dithead8done)
	SIGN(s+48(FP))
	SPLIT6(DX)

dithead8:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	DIT8
	VMOVUPS Y2, (SI)
	VMOVUPS Y3, 32(SI)
	ADDQ    $64, SI
	CMPQ    SI, DI
	JLO     dithead8

	VZEROUPPER

dithead8done:
	RET

// The ramp filter's small end: each block goes through the two smallest
// DIF passes, its gains and the two smallest DIT passes between one load
// and one store. The twiddles and the sign vector of each transform are
// reloaded per block (pure loads for the even size), since both sets do
// not fit the registers at once. The gains arrive one per element and are
// duplicated into (g, g) pairs in register:
//
//	BX  the block's gains    CX  inverse twiddles    Y14  dupidx
//
// GAIN(X, DST, OFF) sets DST to X times the four gains at OFF(BX), as
// SpectralMul spells it: (xr·g, xi·g).
DATA dupidx<>+0(SB)/4, $0
DATA dupidx<>+4(SB)/4, $0
DATA dupidx<>+8(SB)/4, $1
DATA dupidx<>+12(SB)/4, $1
DATA dupidx<>+16(SB)/4, $2
DATA dupidx<>+20(SB)/4, $2
DATA dupidx<>+24(SB)/4, $3
DATA dupidx<>+28(SB)/4, $3
GLOBL dupidx<>(SB), RODATA|NOPTR, $32

#define GAIN(X, DST, OFF) \
	VMOVUPS OFF(BX), X4; \
	VPERMPS Y4, Y14, Y4; \
	VMULPS  Y4, X, DST

// func convolveSmall16AVX2(x, w []complex64, gain []float32, wi []complex64, s, si float32)
TEXT ·convolveSmall16AVX2(SB), NOSPLIT, $0-104
	SMALLEND(128, convolve16done)
	MOVQ gain_base+48(FP), BX
	MOVQ wi_base+72(FP), CX

convolve16:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	SIGN(s+96(FP))
	SPLIT12(DX)
	DIF16
	VMOVUPS dupidx<>(SB), Y14
	GAIN(Y0, Y0, 0)
	GAIN(Y1, Y1, 16)
	GAIN(Y2, Y2, 32)
	GAIN(Y3, Y3, 48)
	SIGN(si+100(FP))
	SPLIT12(CX)
	DIT16
	VMOVUPS Y0, (SI)
	VMOVUPS Y1, 32(SI)
	VMOVUPS Y2, 64(SI)
	VMOVUPS Y3, 96(SI)
	ADDQ    $128, SI
	ADDQ    $64, BX
	CMPQ    SI, DI
	JLO     convolve16

	VZEROUPPER

convolve16done:
	RET

// func convolveSmall8AVX2(x, w []complex64, gain []float32, wi []complex64, s, si float32)
TEXT ·convolveSmall8AVX2(SB), NOSPLIT, $0-104
	SMALLEND(64, convolve8done)
	MOVQ gain_base+48(FP), BX
	MOVQ wi_base+72(FP), CX

convolve8:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	SIGN(s+96(FP))
	SPLIT6(DX)
	DIF8
	VMOVUPS dupidx<>(SB), Y14
	GAIN(Y2, Y0, 0)
	GAIN(Y3, Y1, 16)
	SIGN(si+100(FP))
	SPLIT6(CX)
	DIT8
	VMOVUPS Y2, (SI)
	VMOVUPS Y3, 32(SI)
	ADDQ    $64, SI
	ADDQ    $32, BX
	CMPQ    SI, DI
	JLO     convolve8

	VZEROUPPER

convolve8done:
	RET
