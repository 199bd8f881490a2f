#include "textflag.h"

// AVX2 and AVX-512 tiers of the radix-4 FFT passes: one routine per
// direction runs a whole pass — every block of 4q elements, k stepping by 4
// — over four complex64 per YMM register, or by 8 over eight per ZMM
// register. Each lane performs difFast's / ditFast's float32 operations in
// their order, with separate multiplies and adds (no FMA), so the result is
// bit-identical to the portable passes. The smallest passes of a
// transform, whose quarters are shorter than a register, are fused: on
// AVX2 the two smallest into one routine each way, and for Convolve into
// one routine with the gains between the transforms (second part of the
// file); on AVX-512, the filter core, the three smallest of each transform
// and the gains over blocks of 64 or 32 (third part). The last part is the
// filter's fused ends on AVX-512: the first DIF pass from the payload bytes
// and the last DIT pass into the transposed block.

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

// AVX-512 tier: the same passes over eight complex64 per ZMM register, in
// the same float32 operations and order. VADDSUBPS has no EVEX form, so a
// complex multiply adds the product taken with the twiddle's imaginary
// part sign-flipped on the real lanes, (−wi, wi): xr·wr + (−(xi·wi)) is
// xr·wr − xi·wi exactly, since a − b ≡ a + (−b) and the negation is exact.
// Only AVX512F instructions are used.

// SIGN512(S, NEG, DST) sets NEG to the sign bit on the real floats and DST
// to (−s, s, …) from the float32 argument S.
#define SIGN512(S, NEG, DST) \
	VBROADCASTSD negeven<>(SB), NEG; \
	VBROADCASTSS S, DST; \
	VPXORD       NEG, DST, DST

// QUARTERTURN512(X, SIGN) replaces X by j·X, SIGN holding (−s, s, …).
#define QUARTERTURN512(X, SIGN) \
	VPERMILPS  $0xB1, X, X; \
	VMULPS     SIGN, X, X

// BFLYDIF(A0, A1, A2, A3, SIGN) is difFast's radix-4 butterfly before its
// twiddles on the quarters A0–A3, in place, Z8–Z11 scratch; BFLYDIT is
// ditFast's after its twiddles.
#define BFLYDIF(A0, A1, A2, A3, SIGN) \
	VADDPS  A2, A0, Z8; \
	VADDPS  A3, A1, Z9; \
	VSUBPS  A2, A0, Z10; \
	VSUBPS  A3, A1, Z11; \
	QUARTERTURN512(Z11, SIGN); \
	VADDPS  Z9, Z8, A0; \
	VSUBPS  Z9, Z8, A1; \
	VADDPS  Z11, Z10, A2; \
	VSUBPS  Z11, Z10, A3

#define BFLYDIT(A0, A1, A2, A3, SIGN) \
	VADDPS  A1, A0, Z8; \
	VSUBPS  A1, A0, Z9; \
	VADDPS  A3, A2, Z10; \
	VSUBPS  A3, A2, Z11; \
	QUARTERTURN512(Z11, SIGN); \
	VADDPS  Z10, Z8, A0; \
	VADDPS  Z11, Z9, A1; \
	VSUBPS  Z10, Z8, A2; \
	VSUBPS  Z11, Z9, A3

// Register plan of the large passes: as the AVX2 plan, Z for Y and k
// stepping by 8, with Z14 the sign bit on the real floats, Z15 (−s, s, …),
// Z0–Z3 the quarters and Z8–Z11 scratch.

// CMUL512(X, W) multiplies the eight complex64 in X by the eight at W+AX.
#define CMUL512(X, W) \
	VMOVSLDUP  (W)(AX*1), Z8; \
	VMOVSHDUP  (W)(AX*1), Z9; \
	VPXORD     Z14, Z9, Z9; \
	VPERMILPS  $0xB1, X, Z10; \
	VMULPS     Z8, X, X; \
	VMULPS     Z9, Z10, Z10; \
	VADDPS     Z10, X, X

// func difPassAVX512(x, w []complex64, q int, s float32, pf []byte)
TEXT ·difPassAVX512(SB), NOSPLIT, $0-88
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), DI
	LEAQ (SI)(DI*8), DI
	MOVQ w_base+24(FP), DX
	MOVQ q+48(FP), R10
	SHLQ $3, R10
	QUARTERS
	LEAQ (R13)(R10*1), AX
	CMPQ AX, DI
	JHI  dif512done // no whole block
	SIGN512(s+56(FP), Z14, Z15)
	MOVQ pf_base+64(FP), BX
	MOVQ pf_len+72(FP), CX
	ADDQ BX, CX // end of pf

dif512block:
	XORQ AX, AX

dif512k:
	CMPQ       BX, CX
	JAE        dif512load
	PREFETCHT0 (BX)
	ADDQ       $64, BX

dif512load:
	VMOVUPS (SI)(AX*1), Z0
	VMOVUPS (R11)(AX*1), Z1
	VMOVUPS (R12)(AX*1), Z2
	VMOVUPS (R13)(AX*1), Z3
	BFLYDIF(Z0, Z1, Z2, Z3, Z15)
	VMOVUPS Z0, (SI)(AX*1)
	CMUL512(Z1, R8)
	VMOVUPS Z1, (R11)(AX*1)
	CMUL512(Z2, DX)
	VMOVUPS Z2, (R12)(AX*1)
	CMUL512(Z3, R9)
	VMOVUPS Z3, (R13)(AX*1)
	ADDQ    $64, AX
	CMPQ    AX, R10
	JLT     dif512k

	NEXTBLOCK
	CMPQ SI, DI
	JLO  dif512block

	VZEROUPPER

dif512done:
	RET

// func ditPassAVX512(x, w []complex64, q int, s float32, pf []byte)
TEXT ·ditPassAVX512(SB), NOSPLIT, $0-88
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), DI
	LEAQ (SI)(DI*8), DI
	MOVQ w_base+24(FP), DX
	MOVQ q+48(FP), R10
	SHLQ $3, R10
	QUARTERS
	LEAQ (R13)(R10*1), AX
	CMPQ AX, DI
	JHI  dit512done // no whole block
	SIGN512(s+56(FP), Z14, Z15)
	MOVQ pf_base+64(FP), BX
	MOVQ pf_len+72(FP), CX
	ADDQ BX, CX // end of pf

dit512block:
	XORQ AX, AX

dit512k:
	CMPQ       BX, CX
	JAE        dit512load
	PREFETCHT0 (BX)
	ADDQ       $64, BX

dit512load:
	VMOVUPS (SI)(AX*1), Z0
	VMOVUPS (R11)(AX*1), Z1
	VMOVUPS (R12)(AX*1), Z2
	VMOVUPS (R13)(AX*1), Z3
	CMUL512(Z1, R8) // t1 = a1·w2
	CMUL512(Z2, DX) // t2 = a2·w1
	CMUL512(Z3, R9) // t3 = a3·w3
	BFLYDIT(Z0, Z1, Z2, Z3, Z15)
	VMOVUPS Z0, (SI)(AX*1)
	VMOVUPS Z1, (R11)(AX*1)
	VMOVUPS Z2, (R12)(AX*1)
	VMOVUPS Z3, (R13)(AX*1)
	ADDQ    $64, AX
	CMPQ    AX, R10
	JLT     dit512k

	NEXTBLOCK
	CMPQ SI, DI
	JLO  dit512block

	VZEROUPPER

dit512done:
	RET

// The ramp filter's small end on AVX-512: blocks of 64 elements (even
// log₂n), three passes of each transform — block sizes 64, 16 and the quads
// — or of 32 (odd log₂n), block sizes 32, 8 and the pairs, go through DIF,
// the gains and DIT between one load and one store. The twiddles are split
// once per call, into the frame, as (wr, wr) and (−wi, wi) pairs, so the
// blocks multiply by them without a shuffle.

// SPLIT512(X, RE, IM, NEG) splits the eight twiddles in X into RE = (wr, wr)
// pairs and IM = (−wi, wi) pairs, NEG holding the sign bit on the real
// floats.
#define SPLIT512(X, RE, IM, NEG) \
	VMOVSLDUP X, RE; \
	VMOVSHDUP X, IM; \
	VPXORD    NEG, IM, IM

// CMULS(X, RE, IM, T) multiplies X by split twiddles (registers or memory),
// T scratch.
#define CMULS(X, RE, IM, T) \
	VPERMILPS $0xB1, X, T; \
	VMULPS    RE, X, X; \
	VMULPS    IM, T, T; \
	VADDPS    T, X, X

// Even log₂n. Element e = 32e5 + 16e4 + 8e3 + 4e2 + 2e1 + e0 of a block
// sits in one of eight registers and one of eight complex64 lanes, lane
// λ = 4h + 2m + c: h the 256-bit half, m the 128-bit lane within it, c the
// complex64 within that. Every pass pairs elements on two bits of e, and
// when both are bits of the register number the pass is the vertical
// butterfly of the large passes, so between passes register and lane bits
// trade places (each exchange a pair of two-source shuffles per register
// pair). The layouts, register number / (h, m, c):
//
//	P  load/store, block-64 passes  Z0–Z7    4e5+2e4+e3 / (e2, e1, e0)
//	Q  block-16 passes              Z16–Z23  4e5+2e2+e3 / (e4, e1, e0)
//	P  in between                   Z0–Z7    4e5+2e2+e0 / (e4, e1, e3)
//	Q  quad passes and the gains    Z16–Z23  4e5+2e1+e0 / (e2, e4, e3)
//
// DIF runs down the list, DIT back up it. The block-16 passes take the
// same four twiddles in both halves of a register.
//
//	SP  split twiddles: DIF at 0, DIT at 1152; the block-64 runs' (wr, wr)
//	    of run m, half c at 128·(2m+c), (−wi, wi) 64 bytes on; the block-16
//	    runs' at 768 + 128·m
//	Z12  DIF (−s, s, …)   Z13  DIT's   Z26–Z29  gain indices   Z8–Z11 scratch

// XCH256(A, B, LO, HI) trades the 256-bit half for the register: LO = (A's
// lower half | B's), HI = (A's upper half | B's).
#define XCH256(A, B, LO, HI) \
	VSHUFF64X2 $0x44, B, A, LO; \
	VSHUFF64X2 $0xEE, B, A, HI

// XCH64(A, B, LO, HI) trades the complex64 within each 128-bit lane for the
// register: LO = (A's first, B's first), HI = (A's second, B's second).
#define XCH64(A, B, LO, HI) \
	VUNPCKLPD B, A, LO; \
	VUNPCKHPD B, A, HI

// ROT128(A, B, EVEN, ODD) trades the 128-bit lane within a half for the
// register: EVEN = A's even 128-bit lanes, then B's, ODD the odd ones, so
// the old half becomes the 128-bit lane and the old register the half.
// UNROT128 undoes it: LO = (A[0], B[0], A[1], B[1]), HI = (A[2], B[2],
// A[3], B[3]) in 128-bit lanes.
#define ROT128(A, B, EVEN, ODD) \
	VSHUFF64X2 $0x88, B, A, EVEN; \
	VSHUFF64X2 $0xDD, B, A, ODD

DATA unrot<>+0(SB)/8, $0
DATA unrot<>+8(SB)/8, $1
DATA unrot<>+16(SB)/8, $8
DATA unrot<>+24(SB)/8, $9
DATA unrot<>+32(SB)/8, $2
DATA unrot<>+40(SB)/8, $3
DATA unrot<>+48(SB)/8, $10
DATA unrot<>+56(SB)/8, $11
DATA unrot<>+64(SB)/8, $4
DATA unrot<>+72(SB)/8, $5
DATA unrot<>+80(SB)/8, $12
DATA unrot<>+88(SB)/8, $13
DATA unrot<>+96(SB)/8, $6
DATA unrot<>+104(SB)/8, $7
DATA unrot<>+112(SB)/8, $14
DATA unrot<>+120(SB)/8, $15
GLOBL unrot<>(SB), RODATA|NOPTR, $128

#define UNROT128(A, B, LO, HI) \
	VMOVDQU64 unrot<>(SB), LO; \
	VPERMI2PD B, A, LO; \
	VMOVDQU64 unrot<>+64(SB), HI; \
	VPERMI2PD B, A, HI

// In the quad layout register 4e5 + b, b = 2e1 + e0, holds in lane λ the
// element 32e5 + b + (0, 8, 16, 24, 4, 12, 20, 28)[λ]: gidx<>+64·b picks
// its gains, as (g, g) pairs, from the 32 of its half of the block.
// GIDX(N, B, O0, …, O7) writes index vector N, at gidx<>+64·N, for base B
// and lane offsets O0…O7; the odd routine's (below) are N = 4…7.
#define GIDX(N, B, O0, O1, O2, O3, O4, O5, O6, O7) \
	DATA gidx<>+(64*N+0)(SB)/4, $(B+O0); \
	DATA gidx<>+(64*N+4)(SB)/4, $(B+O0); \
	DATA gidx<>+(64*N+8)(SB)/4, $(B+O1); \
	DATA gidx<>+(64*N+12)(SB)/4, $(B+O1); \
	DATA gidx<>+(64*N+16)(SB)/4, $(B+O2); \
	DATA gidx<>+(64*N+20)(SB)/4, $(B+O2); \
	DATA gidx<>+(64*N+24)(SB)/4, $(B+O3); \
	DATA gidx<>+(64*N+28)(SB)/4, $(B+O3); \
	DATA gidx<>+(64*N+32)(SB)/4, $(B+O4); \
	DATA gidx<>+(64*N+36)(SB)/4, $(B+O4); \
	DATA gidx<>+(64*N+40)(SB)/4, $(B+O5); \
	DATA gidx<>+(64*N+44)(SB)/4, $(B+O5); \
	DATA gidx<>+(64*N+48)(SB)/4, $(B+O6); \
	DATA gidx<>+(64*N+52)(SB)/4, $(B+O6); \
	DATA gidx<>+(64*N+56)(SB)/4, $(B+O7); \
	DATA gidx<>+(64*N+60)(SB)/4, $(B+O7)

GIDX(0, 0, 0, 8, 16, 24, 4, 12, 20, 28)
GIDX(1, 1, 0, 8, 16, 24, 4, 12, 20, 28)
GIDX(2, 2, 0, 8, 16, 24, 4, 12, 20, 28)
GIDX(3, 3, 0, 8, 16, 24, 4, 12, 20, 28)

// GAINQ(X, OFF, IDX) multiplies X by the gains IDX picks from the 32 at
// OFF(BX), as SpectralMul spells it: (xr·g, xi·g).
#define GAINQ(X, OFF, IDX) \
	VMOVUPS   OFF(BX), Z8; \
	VPERMT2PS OFF+64(BX), IDX, Z8; \
	VMULPS    Z8, X, X

// SPLIT64(W, F) splits the twiddles at W — the block-16 run, then the
// block-64 run — into the frame at F, Z24 holding the sign bit on the real
// floats; SPLITRUN(SRC, F) splits one register of them, SPLITQ4 one run of
// the block-16 pass, repeated in both halves.
#define SPLITRUN(SRC, F) \
	VMOVUPS SRC, Z8; \
	SPLIT512(Z8, Z9, Z10, Z24); \
	VMOVUPS Z9, F(SP); \
	VMOVUPS Z10, F+64(SP)

#define SPLITQ4(SRC, F) \
	VBROADCASTF64X4 SRC, Z8; \
	SPLIT512(Z8, Z9, Z10, Z24); \
	VMOVUPS         Z9, F(SP); \
	VMOVUPS         Z10, F+64(SP)

#define SPLIT64(W, F) \
	SPLITRUN(96(W), F); \
	SPLITRUN(160(W), F+128); \
	SPLITRUN(224(W), F+256); \
	SPLITRUN(288(W), F+384); \
	SPLITRUN(352(W), F+512); \
	SPLITRUN(416(W), F+640); \
	SPLITQ4((W), F+768); \
	SPLITQ4(32(W), F+896); \
	SPLITQ4(64(W), F+1024)

// func convolveSmall64AVX512(x, w []complex64, gain []float32, wi []complex64, s, si float32)
//
// w and wi are the tables' entries 4…63: the block-16 run, then the
// block-64 run.
TEXT ·convolveSmall64AVX512(SB), $2304-104
	SMALLEND(512, convolve64done)
	MOVQ gain_base+48(FP), BX
	MOVQ wi_base+72(FP), CX
	SIGN512(s+96(FP), Z24, Z12)
	SIGN512(si+100(FP), Z24, Z13)
	SPLIT64(DX, 0)
	SPLIT64(CX, 1152)
	VMOVUPS gidx<>(SB), Z26
	VMOVUPS gidx<>+64(SB), Z27
	VMOVUPS gidx<>+128(SB), Z28
	VMOVUPS gidx<>+192(SB), Z29

convolve64:
	VMOVUPS (SI), Z0
	VMOVUPS 64(SI), Z1
	VMOVUPS 128(SI), Z2
	VMOVUPS 192(SI), Z3
	VMOVUPS 256(SI), Z4
	VMOVUPS 320(SI), Z5
	VMOVUPS 384(SI), Z6
	VMOVUPS 448(SI), Z7

	// DIF, block 64: the quarters' lower and upper eight elements.
	BFLYDIF(Z0, Z2, Z4, Z6, Z12)
	CMULS(Z2, 256(SP), 320(SP), Z8)
	CMULS(Z4, 0(SP), 64(SP), Z8)
	CMULS(Z6, 512(SP), 576(SP), Z8)
	BFLYDIF(Z1, Z3, Z5, Z7, Z12)
	CMULS(Z3, 384(SP), 448(SP), Z8)
	CMULS(Z5, 128(SP), 192(SP), Z8)
	CMULS(Z7, 640(SP), 704(SP), Z8)

	// DIF, block 16: quarters 4e5 + (0, 2, 1, 3) of Q.
	XCH256(Z0, Z2, Z16, Z18)
	XCH256(Z1, Z3, Z17, Z19)
	XCH256(Z4, Z6, Z20, Z22)
	XCH256(Z5, Z7, Z21, Z23)
	BFLYDIF(Z16, Z18, Z17, Z19, Z12)
	CMULS(Z18, 896(SP), 960(SP), Z8)
	CMULS(Z17, 768(SP), 832(SP), Z8)
	CMULS(Z19, 1024(SP), 1088(SP), Z8)
	BFLYDIF(Z20, Z22, Z21, Z23, Z12)
	CMULS(Z22, 896(SP), 960(SP), Z8)
	CMULS(Z21, 768(SP), 832(SP), Z8)
	CMULS(Z23, 1024(SP), 1088(SP), Z8)

	// DIF, the quads: quarters 4e5 + (0, 1, 2, 3) of the quad layout.
	XCH64(Z16, Z17, Z0, Z1)
	XCH64(Z18, Z19, Z2, Z3)
	XCH64(Z20, Z21, Z4, Z5)
	XCH64(Z22, Z23, Z6, Z7)
	ROT128(Z0, Z2, Z16, Z18)
	ROT128(Z1, Z3, Z17, Z19)
	ROT128(Z4, Z6, Z20, Z22)
	ROT128(Z5, Z7, Z21, Z23)
	BFLYDIF(Z16, Z17, Z18, Z19, Z12)
	BFLYDIF(Z20, Z21, Z22, Z23, Z12)

	// The gains.
	GAINQ(Z16, 0, Z26)
	GAINQ(Z17, 0, Z27)
	GAINQ(Z18, 0, Z28)
	GAINQ(Z19, 0, Z29)
	GAINQ(Z20, 128, Z26)
	GAINQ(Z21, 128, Z27)
	GAINQ(Z22, 128, Z28)
	GAINQ(Z23, 128, Z29)

	// DIT, the quads.
	BFLYDIT(Z16, Z17, Z18, Z19, Z13)
	BFLYDIT(Z20, Z21, Z22, Z23, Z13)

	// DIT, block 16.
	UNROT128(Z16, Z18, Z0, Z2)
	UNROT128(Z17, Z19, Z1, Z3)
	UNROT128(Z20, Z22, Z4, Z6)
	UNROT128(Z21, Z23, Z5, Z7)
	XCH64(Z0, Z1, Z16, Z17)
	XCH64(Z2, Z3, Z18, Z19)
	XCH64(Z4, Z5, Z20, Z21)
	XCH64(Z6, Z7, Z22, Z23)
	CMULS(Z18, 2048(SP), 2112(SP), Z8)
	CMULS(Z17, 1920(SP), 1984(SP), Z8)
	CMULS(Z19, 2176(SP), 2240(SP), Z8)
	BFLYDIT(Z16, Z18, Z17, Z19, Z13)
	CMULS(Z22, 2048(SP), 2112(SP), Z8)
	CMULS(Z21, 1920(SP), 1984(SP), Z8)
	CMULS(Z23, 2176(SP), 2240(SP), Z8)
	BFLYDIT(Z20, Z22, Z21, Z23, Z13)

	// DIT, block 64.
	XCH256(Z16, Z18, Z0, Z2)
	XCH256(Z17, Z19, Z1, Z3)
	XCH256(Z20, Z22, Z4, Z6)
	XCH256(Z21, Z23, Z5, Z7)
	CMULS(Z2, 1408(SP), 1472(SP), Z8)
	CMULS(Z4, 1152(SP), 1216(SP), Z8)
	CMULS(Z6, 1664(SP), 1728(SP), Z8)
	BFLYDIT(Z0, Z2, Z4, Z6, Z13)
	CMULS(Z3, 1536(SP), 1600(SP), Z8)
	CMULS(Z5, 1280(SP), 1344(SP), Z8)
	CMULS(Z7, 1792(SP), 1856(SP), Z8)
	BFLYDIT(Z1, Z3, Z5, Z7, Z13)

	VMOVUPS Z0, (SI)
	VMOVUPS Z1, 64(SI)
	VMOVUPS Z2, 128(SI)
	VMOVUPS Z3, 192(SI)
	VMOVUPS Z4, 256(SI)
	VMOVUPS Z5, 320(SI)
	VMOVUPS Z6, 384(SI)
	VMOVUPS Z7, 448(SI)
	ADDQ    $512, SI
	ADDQ    $256, BX
	CMPQ    SI, DI
	JLO     convolve64

	VZEROUPPER

convolve64done:
	RET

// Odd log₂n, blocks of 32: e = 16e4 + 8e3 + 4e2 + 2e1 + e0 in four
// registers, the layouts, as above:
//
//	P  load/store, block-32 passes  Z0–Z3    2e4+e3 / (e2, e1, e0)
//	Q  in between                   Z16–Z19  2e2+e3 / (e4, e1, e0)
//	P  block-8 passes               Z0–Z3    2e2+e1 / (e3, e4, e0)
//	Q  the pairs                    Z16–Z19  2e2+e0 / (e3, e4, e1)
//
// The pairs pass writes P, in the last layout, where the gains apply and
// DIT's pairs pass reads. The block-8 passes take the same two twiddles in
// every 128-bit lane.
//
//	SP  split twiddles: DIF at 0, DIT at 768; the block-32 runs' (wr, wr)
//	    of run m at 128·m, (−wi, wi) 64 bytes on; the block-8 runs' at
//	    384 + 128·m
//	Z12  DIF (−s, s, …)   Z13  DIT's   Z26–Z29  gain indices   Z8–Z11 scratch

// Register 2e2 + e0 of the last layout holds in lane λ the element
// 4e2 + e0 + (0, 2, 16, 18, 8, 10, 24, 26)[λ] of the block.
GIDX(4, 0, 0, 2, 16, 18, 8, 10, 24, 26)
GIDX(5, 1, 0, 2, 16, 18, 8, 10, 24, 26)
GIDX(6, 4, 0, 2, 16, 18, 8, 10, 24, 26)
GIDX(7, 5, 0, 2, 16, 18, 8, 10, 24, 26)
GLOBL gidx<>(SB), RODATA|NOPTR, $512

// SPLIT32(W, F) splits the twiddles at W — the block-8 run, then the
// block-32 run — into the frame at F, Z24 holding the sign bit on the real
// floats; SPLITQ2 splits one block-8 run, repeated in every 128-bit lane.
#define SPLITQ2(SRC, F) \
	VBROADCASTF32X4 SRC, Z8; \
	SPLIT512(Z8, Z9, Z10, Z24); \
	VMOVUPS         Z9, F(SP); \
	VMOVUPS         Z10, F+64(SP)

#define SPLIT32(W, F) \
	SPLITRUN(48(W), F); \
	SPLITRUN(112(W), F+128); \
	SPLITRUN(176(W), F+256); \
	SPLITQ2((W), F+384); \
	SPLITQ2(16(W), F+512); \
	SPLITQ2(32(W), F+640)

// func convolveSmall32AVX512(x, w []complex64, gain []float32, wi []complex64, s, si float32)
//
// w and wi are the tables' entries 1…30: the block-8 run, then the
// block-32 run.
TEXT ·convolveSmall32AVX512(SB), $1536-104
	SMALLEND(256, convolve32done)
	MOVQ gain_base+48(FP), BX
	MOVQ wi_base+72(FP), CX
	SIGN512(s+96(FP), Z24, Z12)
	SIGN512(si+100(FP), Z24, Z13)
	SPLIT32(DX, 0)
	SPLIT32(CX, 768)
	VMOVUPS gidx<>+256(SB), Z26
	VMOVUPS gidx<>+320(SB), Z27
	VMOVUPS gidx<>+384(SB), Z28
	VMOVUPS gidx<>+448(SB), Z29

convolve32:
	VMOVUPS (SI), Z0
	VMOVUPS 64(SI), Z1
	VMOVUPS 128(SI), Z2
	VMOVUPS 192(SI), Z3

	// DIF, block 32.
	BFLYDIF(Z0, Z1, Z2, Z3, Z12)
	CMULS(Z1, 128(SP), 192(SP), Z8)
	CMULS(Z2, 0(SP), 64(SP), Z8)
	CMULS(Z3, 256(SP), 320(SP), Z8)

	// DIF, block 8.
	XCH256(Z0, Z2, Z16, Z18)
	XCH256(Z1, Z3, Z17, Z19)
	ROT128(Z16, Z17, Z0, Z1)
	ROT128(Z18, Z19, Z2, Z3)
	BFLYDIF(Z0, Z1, Z2, Z3, Z12)
	CMULS(Z1, 512(SP), 576(SP), Z8)
	CMULS(Z2, 384(SP), 448(SP), Z8)
	CMULS(Z3, 640(SP), 704(SP), Z8)

	// DIF, the pairs; the gains; DIT, the pairs.
	XCH64(Z0, Z1, Z16, Z17)
	XCH64(Z2, Z3, Z18, Z19)
	VADDPS Z17, Z16, Z0
	VSUBPS Z17, Z16, Z1
	VADDPS Z19, Z18, Z2
	VSUBPS Z19, Z18, Z3
	GAINQ(Z0, 0, Z26)
	GAINQ(Z1, 0, Z27)
	GAINQ(Z2, 0, Z28)
	GAINQ(Z3, 0, Z29)
	VADDPS Z1, Z0, Z16
	VSUBPS Z1, Z0, Z17
	VADDPS Z3, Z2, Z18
	VSUBPS Z3, Z2, Z19

	// DIT, block 8.
	XCH64(Z16, Z17, Z0, Z1)
	XCH64(Z18, Z19, Z2, Z3)
	CMULS(Z1, 1280(SP), 1344(SP), Z8)
	CMULS(Z2, 1152(SP), 1216(SP), Z8)
	CMULS(Z3, 1408(SP), 1472(SP), Z8)
	BFLYDIT(Z0, Z1, Z2, Z3, Z13)

	// DIT, block 32.
	UNROT128(Z0, Z1, Z16, Z17)
	UNROT128(Z2, Z3, Z18, Z19)
	XCH256(Z16, Z18, Z0, Z2)
	XCH256(Z17, Z19, Z1, Z3)
	CMULS(Z1, 896(SP), 960(SP), Z8)
	CMULS(Z2, 768(SP), 832(SP), Z8)
	CMULS(Z3, 1024(SP), 1088(SP), Z8)
	BFLYDIT(Z0, Z1, Z2, Z3, Z13)

	VMOVUPS Z0, (SI)
	VMOVUPS Z1, 64(SI)
	VMOVUPS Z2, 128(SI)
	VMOVUPS Z3, 192(SI)
	ADDQ    $256, SI
	ADDQ    $128, BX
	CMPQ    SI, DI
	JLO     convolve32

	VZEROUPPER

convolve32done:
	RET

// The filter's fused ends on AVX-512 (ConvolvePairLE, TransposeConvolved):
// the first DIF pass with the cosine weighting of the payload bytes in
// registers, and the last DIT pass with only its kept outputs, stored
// straight into the transposed block. Both perform the float32 operations
// of difFast's and ditFast's portable loops in their order, less the
// pruned differences a − (+0), which are a exactly, and the outputs the
// block does not keep.

// Interleave indices: VPERMT2PS with ilo<> makes (p0[0], p1[0], p0[1],
// p1[1], …, p0[7], p1[7]) of two rows p0, p1 — eight complex64 — and with
// ihi<> the same from element 8 on; iota<> is 0…15.
DATA ilo<>+0(SB)/8, $0x0000001000000000
DATA ilo<>+8(SB)/8, $0x0000001100000001
DATA ilo<>+16(SB)/8, $0x0000001200000002
DATA ilo<>+24(SB)/8, $0x0000001300000003
DATA ilo<>+32(SB)/8, $0x0000001400000004
DATA ilo<>+40(SB)/8, $0x0000001500000005
DATA ilo<>+48(SB)/8, $0x0000001600000006
DATA ilo<>+56(SB)/8, $0x0000001700000007
GLOBL ilo<>(SB), RODATA|NOPTR, $64

DATA ihi<>+0(SB)/8, $0x0000001800000008
DATA ihi<>+8(SB)/8, $0x0000001900000009
DATA ihi<>+16(SB)/8, $0x0000001a0000000a
DATA ihi<>+24(SB)/8, $0x0000001b0000000b
DATA ihi<>+32(SB)/8, $0x0000001c0000000c
DATA ihi<>+40(SB)/8, $0x0000001d0000000d
DATA ihi<>+48(SB)/8, $0x0000001e0000000e
DATA ihi<>+56(SB)/8, $0x0000001f0000000f
GLOBL ihi<>(SB), RODATA|NOPTR, $64

DATA iota<>+0(SB)/8, $0x0000000100000000
DATA iota<>+8(SB)/8, $0x0000000300000002
DATA iota<>+16(SB)/8, $0x0000000500000004
DATA iota<>+24(SB)/8, $0x0000000700000006
DATA iota<>+32(SB)/8, $0x0000000900000008
DATA iota<>+40(SB)/8, $0x0000000b0000000a
DATA iota<>+48(SB)/8, $0x0000000d0000000c
DATA iota<>+56(SB)/8, $0x0000000f0000000e
GLOBL iota<>(SB), RODATA|NOPTR, $64

// CMULM(X, M) multiplies X by the eight twiddles at memory operand M, as
// CMUL512 does, Z10–Z12 scratch.
#define CMULM(X, M) \
	VMOVSLDUP M, Z10; \
	VMOVSHDUP M, Z11; \
	VPXORD    Z14, Z11, Z11; \
	CMULS(X, Z10, Z11, Z12)

// FIRSTDIF(A0, A1, OFF) is the first pass's butterfly on eight k: A0 and
// A1 hold a0 and a1, Z13 is +0 (a2 = a3), and the four outputs go to the
// quarters at OFF bytes past k. Z6–Z9 scratch.
#define FIRSTDIF(A0, A1, OFF) \
	VADDPS    Z13, A0, Z6; \
	VADDPS    Z13, A1, Z7; \
	VPERMILPS $0xB1, A1, Z8; \
	VMULPS    Z15, Z8, Z8; \
	VADDPS    Z7, Z6, Z9; \
	VMOVUPS   Z9, OFF(DI)(BX*2); \
	VSUBPS    Z7, Z6, Z9; \
	CMULM(Z9, OFF(DX)(CX*2)); \
	VMOVUPS   Z9, OFF(DI)(CX*2); \
	VADDPS    Z8, A0, Z9; \
	CMULM(Z9, OFF(DX)(BX*2)); \
	VMOVUPS   Z9, OFF(R11)(BX*2); \
	VSUBPS    Z8, A0, Z9; \
	CMULM(Z9, OFF(R13)(BX*2)); \
	VMOVUPS   Z9, OFF(R12)(BX*2)

// func difFirstLEAVX512(x []complex64, src0 []byte, cos0 []float32, src1 []byte, cos1 []float32, w []complex64, s float32)
//
// Sixteen k per step. BX is 4k and CX 4(k+q): the byte offsets of a0's and
// a1's floats in the payload rows and cosine rows, and at twice the scale
// the offsets of quarters xa, xb and of runs w1, w2; R11 and R12 point at
// xc and xd, R13 at w3. a1 loads under the mask K1 of its lanes below nu
// (Z22 counts k+q+lane, Z23 holds nu), so the lanes past the payload are
// 0·0 = +0, as the cleared row holds.
TEXT ·difFirstLEAVX512(SB), NOSPLIT, $0-148
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), AX // 4q
	MOVQ src0_base+24(FP), SI
	MOVQ cos0_base+48(FP), R8
	MOVQ src1_base+72(FP), R9
	MOVQ cos1_base+96(FP), R10
	MOVQ w_base+120(FP), DX
	LEAQ (DI)(AX*4), R11  // xc = x + 16q bytes
	LEAQ (R11)(AX*2), R12 // xd
	LEAQ (DX)(AX*4), R13  // w3
	SIGN512(s+144(FP), Z14, Z15)
	VPXORD       Z13, Z13, Z13
	VMOVUPS      ilo<>(SB), Z20
	VMOVUPS      ihi<>(SB), Z21
	MOVQ         AX, CX
	SHRQ         $2, CX
	VPBROADCASTD CX, Z22
	VPADDD       iota<>(SB), Z22, Z22 // q + lane
	MOVQ         cos0_len+56(FP), CX
	VPBROADCASTD CX, Z23              // nu
	MOVL         $16, CX
	VPBROADCASTD CX, Z24
	XORQ         BX, BX
	MOVQ         AX, CX               // 4q

firstk:
	VMOVUPS   (SI)(BX*1), Z0
	VMULPS    (R8)(BX*1), Z0, Z0  // x0·cos0
	VMOVUPS   (R9)(BX*1), Z1
	VMULPS    (R10)(BX*1), Z1, Z1 // x1·cos1
	VMOVAPS   Z0, Z2
	VPERMT2PS Z1, Z20, Z0         // a0, k…k+7
	VPERMT2PS Z1, Z21, Z2         // a0, k+8…k+15
	VPCMPD    $1, Z23, Z22, K1    // k+q+lane < nu
	VPADDD    Z24, Z22, Z22
	VMOVUPS.Z (SI)(CX*1), K1, Z3
	VMOVUPS.Z (R8)(CX*1), K1, Z4
	VMULPS    Z4, Z3, Z3
	VMOVUPS.Z (R9)(CX*1), K1, Z4
	VMOVUPS.Z (R10)(CX*1), K1, Z5
	VMULPS    Z5, Z4, Z4
	VMOVAPS   Z3, Z5
	VPERMT2PS Z4, Z20, Z3         // a1, k…k+7
	VPERMT2PS Z4, Z21, Z5         // a1, k+8…k+15
	FIRSTDIF(Z0, Z3, 0)
	FIRSTDIF(Z2, Z5, 64)
	ADDQ      $64, BX
	ADDQ      $64, CX
	CMPQ      BX, AX
	JLT       firstk

	VZEROUPPER
	RET

// LASTTW splits the twiddles of eight k at DX — w1, and w2 and w3 one and
// two runs (R10 bytes) on — into Z6, Z7 (w1), Z4, Z5 (w2) and Z12, Z13
// (w3), Z14 holding the sign bit on the real floats.
#define LASTTW \
	SPLIT512((DX), Z6, Z7, Z14); \
	SPLIT512((DX)(R10*1), Z4, Z5, Z14); \
	SPLIT512((DX)(R10*2), Z12, Z13, Z14)

// LASTT loads the next pair's quarters at BX and forms t1, t2, t3 in Z1–Z3
// beside a0 in Z0, moving BX one pair (R12 bytes) on.
#define LASTT \
	VMOVUPS (BX), Z0; \
	VMOVUPS (BX)(R10*1), Z1; \
	VMOVUPS (BX)(R10*2), Z2; \
	VMOVUPS (BX)(R11*1), Z3; \
	ADDQ    R12, BX; \
	CMULS(Z1, Z4, Z5, Z8); \
	CMULS(Z2, Z6, Z7, Z9); \
	CMULS(Z3, Z12, Z13, Z10)

// LASTBOTH(OUT0, OUT1) is the next pair's outputs k, (a0+t1) + (t2+t3),
// into OUT0 and q+k, (a0−t1) + j·(t2−t3), into OUT1; LASTONE(OUT0) the
// first alone.
#define LASTBOTH(OUT0, OUT1) \
	LASTT; \
	VADDPS Z1, Z0, Z8; \
	VSUBPS Z1, Z0, Z9; \
	VADDPS Z3, Z2, Z10; \
	VSUBPS Z3, Z2, Z11; \
	QUARTERTURN512(Z11, Z15); \
	VADDPS Z10, Z8, OUT0; \
	VADDPS Z11, Z9, OUT1

#define LASTONE(OUT0) \
	LASTT; \
	VADDPS Z1, Z0, Z8; \
	VADDPS Z3, Z2, Z10; \
	VADDPS Z10, Z8, OUT0

// TRANSPOSE8(R0, …, R7) turns eight pairs' registers of eight complex64
// into eight columns: on return Zj holds element j of every pair, pair p
// in lane p. Z0–Z11 scratch.
#define TRANSPOSE8(R0, R1, R2, R3, R4, R5, R6, R7) \
	VUNPCKLPD  R1, R0, Z0; \
	VUNPCKHPD  R1, R0, Z1; \
	VUNPCKLPD  R3, R2, Z2; \
	VUNPCKHPD  R3, R2, Z3; \
	VUNPCKLPD  R5, R4, Z4; \
	VUNPCKHPD  R5, R4, Z5; \
	VUNPCKLPD  R7, R6, Z6; \
	VUNPCKHPD  R7, R6, Z7; \
	VSHUFF64X2 $0x88, Z2, Z0, Z8; \
	VSHUFF64X2 $0xDD, Z2, Z0, Z9; \
	VSHUFF64X2 $0x88, Z6, Z4, Z10; \
	VSHUFF64X2 $0xDD, Z6, Z4, Z11; \
	VSHUFF64X2 $0x88, Z10, Z8, Z0; \
	VSHUFF64X2 $0xDD, Z10, Z8, Z4; \
	VSHUFF64X2 $0x88, Z11, Z9, Z2; \
	VSHUFF64X2 $0xDD, Z11, Z9, Z6; \
	VSHUFF64X2 $0x88, Z3, Z1, Z8; \
	VSHUFF64X2 $0xDD, Z3, Z1, Z9; \
	VSHUFF64X2 $0x88, Z7, Z5, Z10; \
	VSHUFF64X2 $0xDD, Z7, Z5, Z11; \
	VSHUFF64X2 $0x88, Z10, Z8, Z1; \
	VSHUFF64X2 $0xDD, Z10, Z8, Z5; \
	VSHUFF64X2 $0x88, Z11, Z9, Z3; \
	VSHUFF64X2 $0xDD, Z11, Z9, Z7

// STORE8(MOV, P) stores the columns in Z0–Z7 at P, P + R8, …, P + 7·R8
// with MOV, AX scratch. STORENT stores each as one non-temporal 64-byte
// line, STOREHALVES as two non-temporal 32-byte halves (Y8 scratch), STOREU
// with regular stores.
#define STORE8(MOV, P) \
	MOV  Z0, (P); \
	MOV  Z1, (P)(R8*1); \
	MOV  Z2, (P)(R8*2); \
	MOV  Z3, (P)(R9*1); \
	LEAQ (P)(R8*4), AX; \
	MOV  Z4, (AX); \
	MOV  Z5, (AX)(R8*1); \
	MOV  Z6, (AX)(R8*2); \
	MOV  Z7, (AX)(R9*1)

#define STORENT(P) STORE8(VMOVNTPS, P)

#define STOREU(P) STORE8(VMOVUPS, P)

#define NTHALVES(Z, Y, LO, HI) \
	VMOVNTPS      Y, LO; \
	VEXTRACTF64X4 $1, Z, Y8; \
	VMOVNTPS      Y8, HI

#define STOREHALVES(P) \
	NTHALVES(Z0, Y0, (P), 32(P)); \
	NTHALVES(Z1, Y1, (P)(R8*1), 32(P)(R8*1)); \
	NTHALVES(Z2, Y2, (P)(R8*2), 32(P)(R8*2)); \
	NTHALVES(Z3, Y3, (P)(R9*1), 32(P)(R9*1)); \
	LEAQ (P)(R8*4), AX; \
	NTHALVES(Z4, Y4, (AX), 32(AX)); \
	NTHALVES(Z5, Y5, (AX)(R8*1), 32(AX)(R8*1)); \
	NTHALVES(Z6, Y6, (AX)(R8*2), 32(AX)(R8*2)); \
	NTHALVES(Z7, Y7, (AX)(R9*1), 32(AX)(R9*1))

// LASTSTEPBOTH(STORE) and LASTSTEPONE(STORE) are one step of eight k over
// all LinePairs pairs, storing with STORE, and move SI, DX and DI one step
// on.
#define LASTSTEPBOTH(STORE) \
	LASTTW; \
	MOVQ SI, BX; \
	LASTBOTH(Z16, Z24); \
	LASTBOTH(Z17, Z25); \
	LASTBOTH(Z18, Z26); \
	LASTBOTH(Z19, Z27); \
	LASTBOTH(Z20, Z28); \
	LASTBOTH(Z21, Z29); \
	LASTBOTH(Z22, Z30); \
	LASTBOTH(Z23, Z31); \
	TRANSPOSE8(Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23); \
	STORE(DI); \
	TRANSPOSE8(Z24, Z25, Z26, Z27, Z28, Z29, Z30, Z31); \
	LEAQ (DI)(R13*1), BX; \
	STORE(BX); \
	ADDQ $64, SI; \
	ADDQ $64, DX; \
	LEAQ (DI)(R8*8), DI

#define LASTSTEPONE(STORE) \
	LASTTW; \
	MOVQ SI, BX; \
	LASTONE(Z16); \
	LASTONE(Z17); \
	LASTONE(Z18); \
	LASTONE(Z19); \
	LASTONE(Z20); \
	LASTONE(Z21); \
	LASTONE(Z22); \
	LASTONE(Z23); \
	TRANSPOSE8(Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23); \
	STORE(DI); \
	ADDQ $64, SI; \
	ADDQ $64, DX; \
	LEAQ (DI)(R8*8), DI

// func ditLastAVX512(dst []float32, stride int, src []complex64, l int, w []complex64, s float32, both int)
//
// Eight k per step, SI at pair 0's a0, BX walking the pairs, DI at column
// k, R13 bytes below column q+k; CX counts the steps with both outputs,
// R14 the steps after them. The column runs go out as non-temporal stores
// where dst and the column step are 32-byte aligned, for the reason
// transposePairs8AVX2 gives: whole 64-byte lines where they are 64-byte
// aligned, two halves where only 32.
TEXT ·ditLastAVX512(SB), NOSPLIT, $0-104
	MOVQ  dst_base+0(FP), DI
	MOVQ  stride+24(FP), R8
	SHLQ  $2, R8            // column step, bytes
	LEAQ  (R8)(R8*2), R9    // three columns
	MOVQ  src_base+32(FP), SI
	MOVQ  l+56(FP), R12
	SHLQ  $3, R12           // pair step, bytes
	MOVQ  R12, R10
	SHRQ  $2, R10           // q·8
	LEAQ  (R10)(R10*2), R11 // 3q·8
	MOVQ  R10, R13
	SHRQ  $3, R13
	IMULQ R8, R13           // q columns, bytes
	SIGN512(s+88(FP), Z14, Z15)
	MOVQ  both+96(FP), CX
	MOVQ  R10, R14
	SHRQ  $6, R14
	SUBQ  CX, R14           // steps with output k alone
	MOVQ  w_base+64(FP), DX
	MOVQ  DI, AX
	ORQ   R8, AX
	TESTQ $31, AX
	JNZ   lastu
	TESTQ $63, AX
	JNZ   lasthalf
	TESTQ CX, CX
	JZ    lastntone

lastntboth:
	LASTSTEPBOTH(STORENT)
	DECQ CX
	JNZ  lastntboth

lastntone:
	TESTQ R14, R14
	JZ    lastntdone

lastntoneloop:
	LASTSTEPONE(STORENT)
	DECQ R14
	JNZ  lastntoneloop

lastntdone:
	SFENCE
	VZEROUPPER
	RET

lasthalf:
	TESTQ CX, CX
	JZ    lasthalfone

lasthalfboth:
	LASTSTEPBOTH(STOREHALVES)
	DECQ CX
	JNZ  lasthalfboth

lasthalfone:
	TESTQ R14, R14
	JZ    lastntdone

lasthalfoneloop:
	LASTSTEPONE(STOREHALVES)
	DECQ R14
	JNZ  lasthalfoneloop
	JMP  lastntdone

lastu:
	TESTQ CX, CX
	JZ    lastuone

lastuboth:
	LASTSTEPBOTH(STOREU)
	DECQ CX
	JNZ  lastuboth

lastuone:
	TESTQ R14, R14
	JZ    lastudone

lastuoneloop:
	LASTSTEPONE(STOREU)
	DECQ R14
	JNZ  lastuoneloop

lastudone:
	VZEROUPPER
	RET
