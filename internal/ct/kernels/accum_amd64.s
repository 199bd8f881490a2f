#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

DATA lanes<>+0(SB)/4, $0
DATA lanes<>+4(SB)/4, $1
DATA lanes<>+8(SB)/4, $2
DATA lanes<>+12(SB)/4, $3
DATA lanes<>+16(SB)/4, $4
DATA lanes<>+20(SB)/4, $5
DATA lanes<>+24(SB)/4, $6
DATA lanes<>+28(SB)/4, $7
GLOBL lanes<>(SB), RODATA|NOPTR, $32

DATA one<>+0(SB)/4, $0x3f800000 // float32(1)
GLOBL one<>(SB), RODATA|NOPTR, $4

// The lanes struct: eight int32 or float32 per field, in declaration order.
#define L_OFF 0
#define L_U 32
#define L_DU 64
#define L_F 96
#define L_W 128
#define L_YB 160

// func columnLanesAVX2(regs *lanes, r *[3][4]float32, fi, umax float32, j0, n, rw int) bool
//
// All eight lanes of regs at once: lane c is column j0+min(c, n-1), so the
// lanes past the run repeat its last column. The arithmetic is
// ColumnGeomRef's and the yb inner product's, lane-wise and in the same
// order (r[a][b] is at byte 16a+4b of r):
//
//	x := r[0][0]·fi + r[0][1]·fj + r[0][3]                   (Y2)
//	z := r[2][0]·fi + r[2][1]·fj + r[2][3]                   (Y4)
//	f := 1/z; u := x·f; w := f·f
//	yb := r[1][0]·fi + r[1][1]·fj
//	off := int(u)·rw; du := u - float32(int(u))
//
// It reports whether 0 ≤ u < umax in every lane (NaN fails); off and du are
// meaningful only then. j0+n must fit an int32, and so must int(u)·rw for an
// interior u.
TEXT ·columnLanesAVX2(SB), NOSPLIT, $0-49
	MOVQ regs+0(FP), DI
	MOVQ r+8(FP), SI

	// fj = float32(j0 + min(c, n-1))
	VPBROADCASTD n+32(FP), Y0
	VPCMPEQD     Y1, Y1, Y1
	VPADDD       Y1, Y0, Y0
	VPMINSD      lanes<>(SB), Y0, Y0
	VPBROADCASTD j0+24(FP), Y1
	VPADDD       Y1, Y0, Y0
	VCVTDQ2PS    Y0, Y0

	VMOVSS       fi+16(FP), X1
	VMULSS       0(SI), X1, X2
	VBROADCASTSS X2, Y2
	VBROADCASTSS 4(SI), Y3
	VMULPS       Y0, Y3, Y3
	VADDPS       Y3, Y2, Y2
	VBROADCASTSS 12(SI), Y3
	VADDPS       Y3, Y2, Y2 // x

	VMULSS       32(SI), X1, X4
	VBROADCASTSS X4, Y4
	VBROADCASTSS 36(SI), Y3
	VMULPS       Y0, Y3, Y3
	VADDPS       Y3, Y4, Y4
	VBROADCASTSS 44(SI), Y3
	VADDPS       Y3, Y4, Y4 // z

	VBROADCASTSS one<>(SB), Y3
	VDIVPS       Y4, Y3, Y4 // f
	VMULPS       Y4, Y2, Y2 // u
	VMULPS       Y4, Y4, Y5 // w
	VMOVUPS      Y2, L_U(DI)
	VMOVUPS      Y4, L_F(DI)
	VMOVUPS      Y5, L_W(DI)

	VMULSS       16(SI), X1, X3
	VBROADCASTSS X3, Y3
	VBROADCASTSS 20(SI), Y4
	VMULPS       Y0, Y4, Y4
	VADDPS       Y4, Y3, Y3
	VMOVUPS      Y3, L_YB(DI)

	VXORPS       Y3, Y3, Y3
	VCMPPS       $0x1D, Y3, Y2, Y3 // u ≥ 0
	VBROADCASTSS umax+20(FP), Y4
	VCMPPS       $0x11, Y4, Y2, Y4 // u < umax
	VANDPS       Y4, Y3, Y3
	VMOVMSKPS    Y3, AX

	VCVTTPS2DQ   Y2, Y3
	VCVTDQ2PS    Y3, Y4
	VSUBPS       Y4, Y2, Y4
	VMOVUPS      Y4, L_DU(DI)
	VPBROADCASTD rw+40(FP), Y4
	VPMULLD      Y4, Y3, Y3
	VMOVUPS      Y3, L_OFF(DI)

	VZEROUPPER
	CMPL AX, $0xFF
	SETEQ ret+48(FP)
	RET

// Register plan for accumColumnsAVX2. Lane c of every vector is column
// j0+c of the tile row. Every constant is set up with VEX loads and
// broadcasts: a legacy-SSE instruction between the first VEX instruction and
// VZEROUPPER would cost a state transition per call.
//
//	AX  depths consumed so far      CX  depths left
//	DX  lanes struct                BX  range-test lane mask
//	DI  acc (this depth)            SI  mirror acc (this depth)
//	R8  row base (offset 0)         R9  R8 + one detector row
//	R10 k = k0 + depths consumed
//	Y8  vmax  Y9  du   Y10 1     Y11 1-du
//	Y12 f     Y13 wdis Y14 yb    Y15 int32 row offset floor(u)·rw
//	Y0  v     Y1  vSym Y2–Y7 scratch

// SAMPLE(V, ACC) adds wdis·bilinear(V, u) to the 8 accumulators at ACC;
// every lane of V is known to be in [0, vmax). The arithmetic is
// AccumColumnsRef's, lane-wise and in the same order:
//
//	nv := int(v); dv := v - float32(nv)                      (Y2; V)
//	t1 := row0[nv]*(1-dv) + row0[nv+1]*dv                    (Y5)
//	t2 := row1[nv]*(1-dv) + row1[nv+1]*dv                    (Y6)
//	acc += wdis * (t1*(1-du) + t2*du)
//
// The gather index is the lane's row offset + nv; row1 is the next base
// register. A gather clears its mask register as it completes, so Y4 is
// re-armed to all-ones before each one; destination, index and mask stay
// distinct.
#define SAMPLE(V, ACC) \
	VCVTTPS2DQ V, Y2; \
	VCVTDQ2PS  Y2, Y3; \
	VSUBPS     Y3, V, V; \
	VSUBPS     V, Y10, Y3; \
	VPADDD     Y15, Y2, Y2; \
	VPCMPEQD   Y4, Y4, Y4; \
	VGATHERDPS Y4, (R8)(Y2*4), Y5; \
	VPCMPEQD   Y4, Y4, Y4; \
	VGATHERDPS Y4, 4(R8)(Y2*4), Y6; \
	VMULPS     Y3, Y5, Y5; \
	VMULPS     V, Y6, Y6; \
	VADDPS     Y6, Y5, Y5; \
	VPCMPEQD   Y4, Y4, Y4; \
	VGATHERDPS Y4, (R9)(Y2*4), Y6; \
	VPCMPEQD   Y4, Y4, Y4; \
	VGATHERDPS Y4, 4(R9)(Y2*4), Y7; \
	VMULPS     Y3, Y6, Y6; \
	VMULPS     V, Y7, Y7; \
	VADDPS     Y7, Y6, Y6; \
	VMULPS     Y11, Y5, Y5; \
	VMULPS     Y9, Y6, Y6; \
	VADDPS     Y6, Y5, Y5; \
	VMULPS     Y13, Y5, Y5; \
	VADDPS     (ACC), Y5, Y5; \
	VMOVUPS    Y5, (ACC)

// func accumColumnsAVX2(acc, sym *float32, n int, row0, row1 *float32, regs *lanes, vmax, ry2, ry3, vm1 float32, k int) int
TEXT ·accumColumnsAVX2(SB), NOSPLIT, $0-80
	MOVQ acc+0(FP), DI
	MOVQ sym+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ row0+24(FP), R8
	MOVQ row1+32(FP), R9
	MOVQ regs+40(FP), DX
	MOVQ k+64(FP), R10
	XORQ AX, AX
	TESTQ CX, CX
	JLE  ret

	VBROADCASTSS vmax+48(FP), Y8
	VMOVUPS      L_DU(DX), Y9
	VBROADCASTSS one<>(SB), Y10
	VSUBPS       Y9, Y10, Y11
	VMOVUPS      L_F(DX), Y12
	VMOVUPS      L_W(DX), Y13
	VMOVUPS      L_YB(DX), Y14
	VMOVUPS      L_OFF(DX), Y15

depth:
	// fk = float32(k), the same for every lane: converted and scaled once
	// in scalar (the zeroing breaks VCVTSI2SSQ's merge dependency on the
	// previous depth), then v = (yb + ry2·fk + ry3)·f ; vSym = vm1 − v.
	VXORPS       X0, X0, X0
	VCVTSI2SSQ   R10, X0, X0
	VMULSS       ry2+52(FP), X0, X0
	VBROADCASTSS X0, Y0
	VADDPS       Y0, Y14, Y0
	VBROADCASTSS ry3+56(FP), Y2
	VADDPS       Y2, Y0, Y0
	VMULPS       Y12, Y0, Y0
	VBROADCASTSS vm1+60(FP), Y2
	VSUBPS       Y0, Y2, Y1

	// All 16 samples must satisfy 0 ≤ x < vmax (ordered compares: NaN
	// fails). This is also what keeps nv and nv+1 inside both rows.
	VXORPS    Y2, Y2, Y2
	VCMPPS    $0x1D, Y2, Y0, Y3 // v ≥ 0
	VCMPPS    $0x1D, Y2, Y1, Y4 // vSym ≥ 0
	VANDPS    Y4, Y3, Y3
	VCMPPS    $0x11, Y8, Y0, Y4 // v < vmax
	VANDPS    Y4, Y3, Y3
	VCMPPS    $0x11, Y8, Y1, Y4 // vSym < vmax
	VANDPS    Y4, Y3, Y3
	VMOVMSKPS Y3, BX
	CMPL      BX, $0xFF
	JNE       done

	SAMPLE(Y0, DI)
	SAMPLE(Y1, SI)

	ADDQ $32, DI
	ADDQ $32, SI
	INCQ AX
	INCQ R10
	DECQ CX
	JNZ  depth

done:
	VZEROUPPER

ret:
	MOVQ AX, ret+72(FP)
	RET

DATA iota16<>+0(SB)/4, $0
DATA iota16<>+4(SB)/4, $1
DATA iota16<>+8(SB)/4, $2
DATA iota16<>+12(SB)/4, $3
DATA iota16<>+16(SB)/4, $4
DATA iota16<>+20(SB)/4, $5
DATA iota16<>+24(SB)/4, $6
DATA iota16<>+28(SB)/4, $7
DATA iota16<>+32(SB)/4, $8
DATA iota16<>+36(SB)/4, $9
DATA iota16<>+40(SB)/4, $10
DATA iota16<>+44(SB)/4, $11
DATA iota16<>+48(SB)/4, $12
DATA iota16<>+52(SB)/4, $13
DATA iota16<>+56(SB)/4, $14
DATA iota16<>+60(SB)/4, $15
GLOBL iota16<>(SB), RODATA|NOPTR, $64

// tailmask<>+2m is the lane mask of a block of m < 16 depths.
DATA tailmask<>+0(SB)/2, $0x0000
DATA tailmask<>+2(SB)/2, $0x0001
DATA tailmask<>+4(SB)/2, $0x0003
DATA tailmask<>+6(SB)/2, $0x0007
DATA tailmask<>+8(SB)/2, $0x000F
DATA tailmask<>+10(SB)/2, $0x001F
DATA tailmask<>+12(SB)/2, $0x003F
DATA tailmask<>+14(SB)/2, $0x007F
DATA tailmask<>+16(SB)/2, $0x00FF
DATA tailmask<>+18(SB)/2, $0x01FF
DATA tailmask<>+20(SB)/2, $0x03FF
DATA tailmask<>+22(SB)/2, $0x07FF
DATA tailmask<>+24(SB)/2, $0x0FFF
DATA tailmask<>+26(SB)/2, $0x1FFF
DATA tailmask<>+28(SB)/2, $0x3FFF
DATA tailmask<>+30(SB)/2, $0x7FFF
GLOBL tailmask<>(SB), RODATA|NOPTR, $32

DATA maxint32<>+0(SB)/4, $0x7FFFFFFF
GLOBL maxint32<>(SB), RODATA|NOPTR, $4

DATA lane15<>+0(SB)/4, $15
GLOBL lane15<>(SB), RODATA|NOPTR, $4

// Register plan for accumWindowAVX512. Lane l of every vector is depth
// kk+l of column c; the constants are per call, the column registers per
// column, the rest per block.
//
//	DI  acc (tile row)          R14 h
//	R12 c                       R13 kk
//	R9  column's first row      R10 column's second row
//	SI  column's acc            AX  column's mirror acc (SI + h floats)
//	R11 window base of v        BX  window base of vSym
//	CX, DX, R8 scratch
//	K1  the block's depths      K2  K1 ∧ both samples inside [0, vmax)
//	Z31 lane numbers 0…15       Z30 1           Z29 vmax
//	Z28 ry2   Z27 ry3   Z26 vm1 Z25 int32 rw-32 (highest window base)
//	Z24 int32 30 (highest tap index)            Z15 int32 1
//	Z23/Z22 the lane (0 or 15) of a whole block's least v/vSym
//	Z21 0     Z20 f     Z19 wdis      Z18 yb   Z17 du   Z16 1-du
//	Z0  v     Z1  vSym  Z2/Z4 nv of v/vSym      Z3/Z5 dv of v/vSym
//	Z8/Z9 tap index of v/vSym        Z6, Z7, Z10–Z14 scratch

// WBASE(NV, KT, IDX, GP, FAIL) places the window of the lanes KT:
// base = min(min of NV over KT, rw-32) into GP and every lane of IDX gets
// NV - base. It jumps to FAIL when a lane of KT has an index outside
// 0 … 30, whose tap pair nv, nv+1 would then leave the 32 samples at
// base. Lanes outside KT enter neither the minimum nor the test.
#define WBASE(NV, KT, IDX, GP, FAIL) \
	VPBROADCASTD  maxint32<>(SB), Z6; \
	VMOVDQA32     NV, KT, Z6; \
	VEXTRACTI64X4 $1, Z6, Y7; \
	VPMINSD       Y7, Y6, Y6; \
	VEXTRACTI128  $1, Y6, X7; \
	VPMINSD       X7, X6, X6; \
	VPSHUFD       $0x4E, X6, X7; \
	VPMINSD       X7, X6, X6; \
	VPSHUFD       $0xB1, X6, X7; \
	VPMINSD       X7, X6, X6; \
	VPMINSD       Z25, Z6, Z6; \
	VMOVD         X6, GP; \
	VPBROADCASTD  X6, Z6; \
	VPSUBD        Z6, NV, IDX; \
	VPCMPUD       $2, Z24, IDX, KT, K4; \
	KXORW         K4, KT, K4; \
	KORTESTW      K4, K4; \
	JNZ           FAIL

// WBASE16(NV, SEL, IDX, GP, FAIL) is WBASE for a whole block of 16 depths:
// down a column v is monotonic in the depth (every operation that forms it
// is), so the least nv sits in the first or the last lane — SEL, all lanes
// 0 or 15 — and one permute replaces the reduction. The index test still
// covers every lane, so the bits never rest on that argument. Sending whole
// blocks through WBASE instead read 18 % slower on BenchmarkSlabPair h = 32
// (Sapphire Rapids, one worker).
#define WBASE16(NV, SEL, IDX, GP, FAIL) \
	VPERMD   NV, SEL, Z6; \
	VPMINSD  Z25, Z6, Z6; \
	VMOVD    X6, GP; \
	VPSUBD   Z6, NV, IDX; \
	VPCMPUD  $2, Z24, IDX, K4; \
	KORTESTW K4, K4; \
	JCC      FAIL

// WSAMPLE(IDX, DV, GP, ACC, KT) adds wdis·bilinear(v, u) to the lanes KT of
// the 16 accumulators at ACC+kk. The taps row[nv] and row[nv+1] of both
// detector rows come from the 32 samples at row+base (GP) through
// two-source permutes at IDX and IDX+1; the arithmetic is SAMPLE's,
// lane-wise and in the same order:
//
//	t1 := row0[nv]*(1-dv) + row0[nv+1]*dv                    (Z11)
//	t2 := row1[nv]*(1-dv) + row1[nv+1]*dv                    (Z12)
//	acc += wdis * (t1*(1-du) + t2*du)
#define WSAMPLE(IDX, DV, GP, ACC, KT) \
	VPADDD    Z15, IDX, Z10; \
	VSUBPS    DV, Z30, Z13; \
	VMOVUPS   (R9)(GP*4), Z11; \
	VPERMT2PS 64(R9)(GP*4), IDX, Z11; \
	VMOVUPS   (R9)(GP*4), Z12; \
	VPERMT2PS 64(R9)(GP*4), Z10, Z12; \
	VMULPS    Z13, Z11, Z11; \
	VMULPS    DV, Z12, Z12; \
	VADDPS    Z12, Z11, Z11; \
	VMOVUPS   (R10)(GP*4), Z12; \
	VPERMT2PS 64(R10)(GP*4), IDX, Z12; \
	VMOVUPS   (R10)(GP*4), Z14; \
	VPERMT2PS 64(R10)(GP*4), Z10, Z14; \
	VMULPS    Z13, Z12, Z12; \
	VMULPS    DV, Z14, Z14; \
	VADDPS    Z14, Z12, Z12; \
	VMULPS    Z16, Z11, Z11; \
	VMULPS    Z17, Z12, Z12; \
	VADDPS    Z12, Z11, Z11; \
	VMULPS    Z19, Z11, Z11; \
	VMOVUPS   (ACC)(R13*4), KT, Z12; \
	VADDPS    Z12, Z11, Z11; \
	VMOVUPS   Z11, KT, (ACC)(R13*4)

// WTRY(KT, FAIL) samples the lanes KT of the block, v and its mirror, each
// through its own window. It jumps to FAIL having written nothing when a
// lane of KT is outside the range test K2 or either window does not fit.
#define WTRY(KT, FAIL) \
	KANDNW   KT, K2, K4; \
	KORTESTW K4, K4; \
	JNZ      FAIL; \
	WBASE(Z2, KT, Z8, R11, FAIL); \
	WBASE(Z4, KT, Z9, BX, FAIL); \
	WSAMPLE(Z8, Z3, R11, SI, KT); \
	WSAMPLE(Z9, Z5, BX, AX, KT)

// func accumWindowAVX512(acc *float32, h int, row0 *float32, rw int, regs *lanes, n, k0, c, kk int, vmax, ry2, ry3, vm1 float32) (stopC, stopKK int)
TEXT ·accumWindowAVX512(SB), NOSPLIT, $0-104
	MOVQ acc+0(FP), DI
	MOVQ h+8(FP), R14
	MOVQ c+56(FP), R12
	MOVQ kk+64(FP), R13

	VMOVDQU32    iota16<>(SB), Z31
	VBROADCASTSS one<>(SB), Z30
	VBROADCASTSS vmax+72(FP), Z29
	VBROADCASTSS ry2+76(FP), Z28
	VBROADCASTSS ry3+80(FP), Z27
	VBROADCASTSS vm1+84(FP), Z26
	MOVQ         rw+24(FP), R11
	SUBQ         $32, R11
	VPBROADCASTD R11, Z25
	MOVL         $30, R11
	VPBROADCASTD R11, Z24
	VPXORD       Z21, Z21, Z21
	MOVL         $1, R11
	VPBROADCASTD R11, Z15

column:
	CMPQ         R12, n+40(FP)
	JGE          stop
	MOVQ         regs+32(FP), DX
	MOVLQSX      L_OFF(DX)(R12*4), R9
	MOVQ         row0+16(FP), R8
	MOVQ         rw+24(FP), R10
	LEAQ         (R8)(R9*4), R9
	LEAQ         (R9)(R10*4), R10
	VBROADCASTSS L_F(DX)(R12*4), Z20
	VBROADCASTSS L_W(DX)(R12*4), Z19
	VBROADCASTSS L_YB(DX)(R12*4), Z18
	VBROADCASTSS L_DU(DX)(R12*4), Z17
	VSUBPS       Z17, Z30, Z16
	MOVQ         R12, SI
	IMULQ        R14, SI
	LEAQ         (DI)(SI*8), SI
	LEAQ         (SI)(R14*4), AX

	// v rises with the depth when ry2 and f have the same sign, and falls
	// otherwise; its mirror does the opposite.
	VPXORD       Z22, Z22, Z22
	VPBROADCASTD lane15<>(SB), Z23
	MOVL         L_F(DX)(R12*4), CX
	XORL         ry2+76(FP), CX
	JNS          block
	VPXORD       Z23, Z23, Z23
	VPBROADCASTD lane15<>(SB), Z22

block:
	CMPQ    R13, R14
	JGE     nextcol
	MOVQ    R14, R11
	SUBQ    R13, R11
	MOVL    $0xFFFF, BX
	CMPQ    R11, $16
	JGE     mask
	LEAQ    tailmask<>(SB), BX
	MOVWLZX (BX)(R11*2), BX

mask:
	KMOVW BX, K1

	// fk = float32(k0 + kk + l), then v = (yb + ry2·fk + ry3)·f and
	// vSym = vm1 − v, AccumColumnsRef's operations in its order.
	MOVQ         k0+48(FP), R11
	ADDQ         R13, R11
	VPBROADCASTD R11, Z6
	VPADDD       Z31, Z6, Z6
	VCVTDQ2PS    Z6, Z6
	VMULPS       Z28, Z6, Z6
	VADDPS       Z6, Z18, Z0
	VADDPS       Z27, Z0, Z0
	VMULPS       Z20, Z0, Z0
	VSUBPS       Z0, Z26, Z1

	// K2: the lanes of K1 whose v and vSym both satisfy 0 ≤ x < vmax
	// (ordered compares: NaN fails), which also keeps nv and nv+1 inside
	// both rows.
	VCMPPS $0x1D, Z21, Z0, K1, K2
	VCMPPS $0x11, Z29, Z0, K2, K2
	VCMPPS $0x1D, Z21, Z1, K2, K2
	VCMPPS $0x11, Z29, Z1, K2, K2

	// nv := int(v); dv := v - float32(nv), for v and vSym.
	VCVTTPS2DQ Z0, Z2
	VCVTDQ2PS  Z2, Z3
	VSUBPS     Z3, Z0, Z3
	VCVTTPS2DQ Z1, Z4
	VCVTDQ2PS  Z4, Z5
	VSUBPS     Z5, Z1, Z5

	// A whole block with every sample in range tries the two permuted
	// minima first; anything else, and a block they do not fit, takes the
	// masked reduction.
	KORTESTW K2, K2
	JCC      masked
	WBASE16(Z2, Z22, Z8, R11, masked)
	WBASE16(Z4, Z23, Z9, BX, masked)
	WSAMPLE(Z8, Z3, R11, SI, K1)
	WSAMPLE(Z9, Z5, BX, AX, K1)
	ADDQ $16, R13
	JMP  block

masked:
	WTRY(K1, halves)
	ADDQ $16, R13
	JMP  block

halves:
	// Retry as two 8-depth windows; a block of at most 8 depths is already
	// one, and goes back to the caller.
	KMOVW K1, R11
	CMPL  R11, $0xFF
	JLS   stop
	MOVL  $0xFF, R11
	KMOVW R11, K3
	WTRY(K3, stop)
	MOVL  $0xFF00, R11
	KMOVW R11, K3
	KANDW K1, K3, K3
	WTRY(K3, upper)
	ADDQ  $16, R13
	JMP   block

upper:
	ADDQ $8, R13
	JMP  stop

nextcol:
	INCQ R12
	XORQ R13, R13
	JMP  column

stop:
	VZEROUPPER
	MOVQ R12, stopC+88(FP)
	MOVQ R13, stopKK+96(FP)
	RET
