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

// LANES(FI, UMAX, J0, N, RW) fills all eight lanes of the lanes struct at
// DI from the matrix r at SI: lane c is column j0+min(c, n-1), so the lanes
// past the run repeat its last column. The arithmetic is ColumnGeomRef's and
// the yb inner product's, lane-wise and in the same order (r[a][b] is at
// byte 16a+4b of r):
//
//	x := r[0][0]·fi + r[0][1]·fj + r[0][3]                   (Y2)
//	z := r[2][0]·fi + r[2][1]·fj + r[2][3]                   (Y4)
//	f := 1/z; u := x·f; w := f·f
//	yb := r[1][0]·fi + r[1][1]·fj
//	off := int(u)·rw; du := u - float32(int(u))
//
// AX gets the lanes whose u is interior, 0 ≤ u < umax (NaN fails), one bit
// each; off and du are meaningful only when all eight are. j0+n must fit an
// int32, and so must int(u)·rw for an interior u.
#define LANES(FI, UMAX, J0, N, RW) \
	VPBROADCASTD N, Y0; \
	VPCMPEQD     Y1, Y1, Y1; \
	VPADDD       Y1, Y0, Y0; \
	VPMINSD      lanes<>(SB), Y0, Y0; \
	VPBROADCASTD J0, Y1; \
	VPADDD       Y1, Y0, Y0; \
	VCVTDQ2PS    Y0, Y0; \
	VMOVSS       FI, X1; \
	VMULSS       0(SI), X1, X2; \
	VBROADCASTSS X2, Y2; \
	VBROADCASTSS 4(SI), Y3; \
	VMULPS       Y0, Y3, Y3; \
	VADDPS       Y3, Y2, Y2; \
	VBROADCASTSS 12(SI), Y3; \
	VADDPS       Y3, Y2, Y2; \
	VMULSS       32(SI), X1, X4; \
	VBROADCASTSS X4, Y4; \
	VBROADCASTSS 36(SI), Y3; \
	VMULPS       Y0, Y3, Y3; \
	VADDPS       Y3, Y4, Y4; \
	VBROADCASTSS 44(SI), Y3; \
	VADDPS       Y3, Y4, Y4; \
	VBROADCASTSS one<>(SB), Y3; \
	VDIVPS       Y4, Y3, Y4; \
	VMULPS       Y4, Y2, Y2; \
	VMULPS       Y4, Y4, Y5; \
	VMOVUPS      Y2, L_U(DI); \
	VMOVUPS      Y4, L_F(DI); \
	VMOVUPS      Y5, L_W(DI); \
	VMULSS       16(SI), X1, X3; \
	VBROADCASTSS X3, Y3; \
	VBROADCASTSS 20(SI), Y4; \
	VMULPS       Y0, Y4, Y4; \
	VADDPS       Y4, Y3, Y3; \
	VMOVUPS      Y3, L_YB(DI); \
	VXORPS       Y3, Y3, Y3; \
	VCMPPS       $0x1D, Y3, Y2, Y3; \
	VBROADCASTSS UMAX, Y4; \
	VCMPPS       $0x11, Y4, Y2, Y4; \
	VANDPS       Y4, Y3, Y3; \
	VMOVMSKPS    Y3, AX; \
	VCVTTPS2DQ   Y2, Y3; \
	VCVTDQ2PS    Y3, Y4; \
	VSUBPS       Y4, Y2, Y4; \
	VMOVUPS      Y4, L_DU(DI); \
	VPBROADCASTD RW, Y4; \
	VPMULLD      Y4, Y3, Y3; \
	VMOVUPS      Y3, L_OFF(DI)

// func columnLanesAVX2(regs *lanes, r *[3][4]float32, fi, umax float32, j0, n, rw int) bool
//
// LANES into regs; it reports whether every u is interior.
TEXT ·columnLanesAVX2(SB), NOSPLIT, $0-49
	MOVQ regs+0(FP), DI
	MOVQ r+8(FP), SI
	LANES(fi+16(FP), umax+20(FP), j0+24(FP), n+32(FP), rw+40(FP))
	VZEROUPPER
	CMPL  AX, $0xFF
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

// revlanes<> reverses the 16 lanes of a register through VPERMPS/VPERMD.
DATA revlanes<>+0(SB)/4, $15
DATA revlanes<>+4(SB)/4, $14
DATA revlanes<>+8(SB)/4, $13
DATA revlanes<>+12(SB)/4, $12
DATA revlanes<>+16(SB)/4, $11
DATA revlanes<>+20(SB)/4, $10
DATA revlanes<>+24(SB)/4, $9
DATA revlanes<>+28(SB)/4, $8
DATA revlanes<>+32(SB)/4, $7
DATA revlanes<>+36(SB)/4, $6
DATA revlanes<>+40(SB)/4, $5
DATA revlanes<>+44(SB)/4, $4
DATA revlanes<>+48(SB)/4, $3
DATA revlanes<>+52(SB)/4, $2
DATA revlanes<>+56(SB)/4, $1
DATA revlanes<>+60(SB)/4, $0
GLOBL revlanes<>(SB), RODATA|NOPTR, $64

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

DATA minint32<>+0(SB)/4, $0x80000000
GLOBL minint32<>(SB), RODATA|NOPTR, $4

DATA minusone<>+0(SB)/4, $0xbf800000 // float32(-1)
GLOBL minusone<>(SB), RODATA|NOPTR, $4

DATA sixteen<>+0(SB)/4, $0x41800000 // float32(16)
GLOBL sixteen<>(SB), RODATA|NOPTR, $4

// Register plan for accumWindowAVX512 on a slab at least windowDepth deep,
// one tile row at a time. Lane l of every vector is depth kk+l of one
// column. The loop is software-pipelined: while the taps of the pending
// block (the cursor c, kk) are read, the index math of the block after it —
// in the same column or at the top of the next — has already been issued
// into the other register set, so the loads of the next block never wait on
// the v → floor → window base chain. The two sets alternate.
//
//	DI  acc (tile row)          DX  the tile row's lanes struct R14 h
//	R12 c, R13 kk: the cursor, the block in the pending set
//	R9, R10 column c's two detector rows
//	SI  column c's acc          AX  SI + 2h-16 floats (the mirror blocks run down from it)
//	R11, BX  set A's window bases of v and vSym   CX, R8  set B's
//	R15 scratch
//	Z0–Z3 set A: v's window index, dv, vSym's window index, dvSym; K5 its fast mask
//	Z4–Z7 set B, the same; K6
//	Z8–Z12 scratch
//	Z13/Z14 the lane (0 or 15) of a block's least v/vSym   Z18 yb  Z20 f
//	Z22 fk: these four belong to the block whose index math runs next
//	Z16 1-du  Z17 du  Z19 wdis: column c's
//	Z15 int32 rw-2  Z21 0  Z23 lane reversal  Z24 int32 30  Z25 int32 rw-32
//	Z26 vm1  Z27 ry3  Z28 ry2  Z29 16  Z30 1  Z31 int32 1
//
// A block is fast when all 16 depths are in the slab and both of its
// samples' tap pairs lie inside the detector row and inside their window;
// any other block takes the bordered path (slow), which then re-primes the
// pipeline behind it.

// MATH(IV, DV, IS, DS, GV, GS, KOK) is the index math of the block at fk
// (Z22) of the column in Z13/Z14/Z18/Z20, into one register set.
// AccumColumnsRef's operations in its order, lane-wise:
//
//	v := (yb + ry2·fk + ry3)·f; vSym := vm1 − v
//	nv := floor(v); dv := v − float32(nv), and the same for vSym
//
// The window base of each is its least nv — down a column v is monotonic
// in the depth (every operation that forms it is), so that is the first or
// the last lane — clamped to [0, rw-32], and the window index of each lane
// is nv − base. KOK gets the lanes whose index is in 0 … 30: only then is
// 0 ≤ nv ≤ rw-2, both taps inside the row and the window. A NaN or
// out-of-range v converts to 0x80000000 and fails the test, so the bits
// never rest on the monotonicity argument.
#define MATH(IV, DV, IS, DS, GV, GS, KOK) \
	VMULPS           Z28, Z22, Z8; \
	VADDPS           Z8, Z18, Z8; \
	VADDPS           Z27, Z8, Z8; \
	VMULPS           Z20, Z8, Z8; \
	VSUBPS           Z8, Z26, Z9; \
	VCVTPS2DQ.RD_SAE Z8, IV; \
	VCVTPS2DQ.RD_SAE Z9, IS; \
	VCVTDQ2PS        IV, DV; \
	VSUBPS           DV, Z8, DV; \
	VCVTDQ2PS        IS, DS; \
	VSUBPS           DS, Z9, DS; \
	VPERMD           IV, Z13, Z10; \
	VPMAXSD          Z21, Z10, Z10; \
	VPMINSD          Z25, Z10, Z10; \
	VMOVD            X10, GV; \
	VPSUBD           Z10, IV, IV; \
	VPERMD           IS, Z14, Z11; \
	VPMAXSD          Z21, Z11, Z11; \
	VPMINSD          Z25, Z11, Z11; \
	VMOVD            X11, GS; \
	VPSUBD           Z11, IS, IS; \
	VPCMPUD          $2, Z24, IV, KOK; \
	VPCMPUD          $2, Z24, IS, KOK, KOK

// WSAMPLE(IDX, DV, A0, B0, A1, B1) leaves wdis·bilinear(v, u) of all 16
// lanes in Z10. The taps row[nv] and row[nv+1] of both detector rows come
// from a 32-sample table per row through two-source permutes at IDX and
// IDX+1: A0|B0 is the first row's table (16 samples each, in registers or
// memory), A1|B1 the second's. The arithmetic is SAMPLE's, lane-wise and in
// the same order:
//
//	t1 := row0[nv]*(1-dv) + row0[nv+1]*dv                    (Z10)
//	t2 := row1[nv]*(1-dv) + row1[nv+1]*dv                    (Z11)
//	wdis * (t1*(1-du) + t2*du)
#define WSAMPLE(IDX, DV, A0, B0, A1, B1) \
	VPADDD    Z31, IDX, Z8; \
	VSUBPS    DV, Z30, Z9; \
	VMOVUPS   A0, Z10; \
	VPERMT2PS B0, IDX, Z10; \
	VMOVUPS   A0, Z11; \
	VPERMT2PS B0, Z8, Z11; \
	VMULPS    Z9, Z10, Z10; \
	VMULPS    DV, Z11, Z11; \
	VADDPS    Z11, Z10, Z10; \
	VMOVUPS   A1, Z11; \
	VPERMT2PS B1, IDX, Z11; \
	VMOVUPS   A1, Z12; \
	VPERMT2PS B1, Z8, Z12; \
	VMULPS    Z9, Z11, Z11; \
	VMULPS    DV, Z12, Z12; \
	VADDPS    Z12, Z11, Z11; \
	VMULPS    Z16, Z10, Z10; \
	VMULPS    Z17, Z11, Z11; \
	VADDPS    Z11, Z10, Z10; \
	VMULPS    Z19, Z10, Z10

// FAST(IV, DV, IS, DS, GV, GS) adds a fast block's samples into column c's
// accumulator: v's at depths kk … kk+15, vSym's reversed into the 16 floats
// that run down from 2h-1-kk.
#define FAST(IV, DV, IS, DS, GV, GS) \
	WSAMPLE(IV, DV, (R9)(GV*4), 64(R9)(GV*4), (R10)(GV*4), 64(R10)(GV*4)); \
	VADDPS  (SI)(R13*4), Z10, Z10; \
	VMOVUPS Z10, (SI)(R13*4); \
	WSAMPLE(IS, DS, (R9)(GS*4), 64(R9)(GS*4), (R10)(GS*4), 64(R10)(GS*4)); \
	VPERMPS Z10, Z23, Z10; \
	MOVQ    R13, R15; \
	NEGQ    R15; \
	VADDPS  (AX)(R15*4), Z10, Z10; \
	VMOVUPS Z10, (AX)(R15*4)

// MCOLUMN(C, T) loads column C's f and yb for the index math and picks the
// lanes of its least v and vSym: v rises with the depth when ry2 and f have
// the same sign, and falls otherwise; its mirror does the opposite.
#define MCOLUMN(C, T) \
	VBROADCASTSS L_F(DX)(C*4), Z20; \
	VBROADCASTSS L_YB(DX)(C*4), Z18; \
	VMOVD        X28, T; \
	XORL         L_F(DX)(C*4), T; \
	SARL         $31, T; \
	ANDL         $15, T; \
	VPBROADCASTD T, Z13; \
	XORL         $15, T; \
	VPBROADCASTD T, Z14

// FKINIT(KK, T) sets fk = float32(k0 + KK + l) in lane l. From there each
// block steps it by 16, exactly: the caller keeps every depth number below
// 2²⁴ in magnitude.
#define FKINIT(KK, T) \
	MOVQ         k0+88(FP), T; \
	ADDQ         KK, T; \
	VPBROADCASTD T, Z22; \
	VPADDD       iota16<>(SB), Z22, Z22; \
	VCVTDQ2PS    Z22, Z22

// SCOLUMN loads column c's (R12's) registers for the samples.
#define SCOLUMN \
	MOVLQSX      L_OFF(DX)(R12*4), R9; \
	MOVQ         row0+24(FP), R10; \
	LEAQ         (R10)(R9*4), R9; \
	MOVQ         rw+32(FP), R10; \
	LEAQ         (R9)(R10*4), R10; \
	VBROADCASTSS L_W(DX)(R12*4), Z19; \
	VBROADCASTSS L_DU(DX)(R12*4), Z17; \
	VSUBPS       Z17, Z30, Z16; \
	MOVQ         R12, SI; \
	IMULQ        R14, SI; \
	LEAQ         (DI)(SI*8), SI; \
	LEAQ         -64(SI)(R14*8), AX

// The bordered path, for the block at the cursor. It recomputes the block
// from scratch into set A (PREP): nv, dv, the same for vSym, and in K5 the
// lanes whose v or vSym is NaN. Lanes with v in (−1, rw) are live: their
// taps outside the row (row[−1], row[rw]) read +0, as interp.Bilinear's do.
// Every other lane adds wdis·(+0), what the reference adds for a sample
// off the detector. A live lane has −1 ≤ nv ≤ rw-1, and DEAD keeps v = −1
// out of it.
#define PREP \
	MOVQ             k0+88(FP), R15; \
	ADDQ             R13, R15; \
	VPBROADCASTD     R15, Z8; \
	VPADDD           iota16<>(SB), Z8, Z8; \
	VCVTDQ2PS        Z8, Z8; \
	VMULPS           Z28, Z8, Z8; \
	VBROADCASTSS     L_YB(DX)(R12*4), Z9; \
	VADDPS           Z8, Z9, Z8; \
	VADDPS           Z27, Z8, Z8; \
	VBROADCASTSS     L_F(DX)(R12*4), Z9; \
	VMULPS           Z9, Z8, Z8; \
	VSUBPS           Z8, Z26, Z9; \
	VCMPPS           $3, Z8, Z8, K2; \
	VCMPPS           $3, Z9, Z9, K3; \
	KORW             K2, K3, K5; \
	VCVTPS2DQ.RD_SAE Z8, Z0; \
	VCVTDQ2PS        Z0, Z1; \
	VSUBPS           Z1, Z8, Z1; \
	VCVTPS2DQ.RD_SAE Z9, Z2; \
	VCVTDQ2PS        Z2, Z3; \
	VSUBPS           Z3, Z9, Z3; \
	DEAD(Z8, Z0, K2); \
	DEAD(Z9, Z2, K3)

// DEAD(V, NV, K) gives the lanes whose V is at most −1 the floor
// 0x80000000, which no live test passes: v = −1 floors to −1, which would.
#define DEAD(V, NV, K) \
	VCMPPS.BCST  $2, minusone<>(SB), V, K; \
	VPBROADCASTD minint32<>(SB), K, NV

// FITBASE(NV, KT, GP, FAIL) places the window of the live lanes of KT —
// those with −1 ≤ nv ≤ rw-1 — at base = min(max(least live nv, 0), rw-32)
// in GP. It jumps to FAIL when a live lane's taps inside the row leave the
// 32 samples at base: clamp(nv, 0, rw-2) − base must be in 0 … 30.
#define FITBASE(NV, KT, GP, FAIL) \
	VPADDD        Z31, Z15, Z8; \
	VPADDD        Z31, Z8, Z8; \
	VPADDD        Z31, NV, Z9; \
	VPCMPUD       $2, Z8, Z9, KT, K4; \
	VPBROADCASTD  maxint32<>(SB), Z8; \
	VMOVDQA32     NV, K4, Z8; \
	VEXTRACTI64X4 $1, Z8, Y9; \
	VPMINSD       Y9, Y8, Y8; \
	VEXTRACTI128  $1, Y8, X9; \
	VPMINSD       X9, X8, X8; \
	VPSHUFD       $0x4E, X8, X9; \
	VPMINSD       X9, X8, X8; \
	VPSHUFD       $0xB1, X8, X9; \
	VPMINSD       X9, X8, X8; \
	VPMAXSD       X21, X8, X8; \
	VPMINSD       X25, X8, X8; \
	VMOVD         X8, GP; \
	VPBROADCASTD  X8, Z8; \
	VPMAXSD       Z21, NV, Z9; \
	VPMINSD       Z15, Z9, Z9; \
	VPSUBD        Z8, Z9, Z9; \
	VPCMPUD       $6, Z24, Z9, K4, K3; \
	KORTESTW      K3, K3; \
	JNZ           FAIL

// BSAMPLE(NV, DV, BV, A0, B0, A1, B1, KT) is WSAMPLE for the lanes KT of a
// bordered block: lane l's window index is NV − BV, and a tap outside the
// row is a zero-masked permute; a lane that is not live leaves +0 in Z10
// before the weight multiplies it.
#define BSAMPLE(NV, DV, BV, A0, B0, A1, B1, KT) \
	VPSUBD        BV, NV, Z8; \
	VPADDD        Z31, Z15, Z9; \
	VPCMPUD       $2, Z9, NV, KT, K2; \
	VPADDD        Z31, NV, Z11; \
	VPCMPUD       $2, Z9, Z11, KT, K3; \
	KORW          K2, K3, K4; \
	VPADDD        Z31, Z8, Z9; \
	VSUBPS        DV, Z30, Z12; \
	VMOVUPS       A0, Z10; \
	VPERMT2PS.Z   B0, Z8, K2, Z10; \
	VMOVUPS       A0, Z11; \
	VPERMT2PS.Z   B0, Z9, K3, Z11; \
	VMULPS        Z12, Z10, Z10; \
	VMULPS        DV, Z11, Z11; \
	VADDPS        Z11, Z10, Z10; \
	VMOVUPS       A1, Z11; \
	VPERMT2PS.Z   B1, Z8, K2, Z11; \
	VMOVUPS       A1, Z8; \
	VPERMT2PS.Z   B1, Z9, K3, Z8; \
	VMULPS        Z12, Z11, Z11; \
	VMULPS        DV, Z8, Z8; \
	VADDPS        Z8, Z11, Z11; \
	VMULPS        Z16, Z10, Z10; \
	VMULPS        Z17, Z11, Z11; \
	VADDPS.Z      Z11, Z10, K4, Z10; \
	VMULPS        Z19, Z10, Z10

// TRY(KT, FAIL) samples the lanes KT of the bordered block, v and its
// mirror, each through its own window. It jumps to FAIL having written
// nothing when a lane of KT is NaN or either window does not fit.
#define TRY(KT, FAIL) \
	KANDW       KT, K5, K2; \
	KORTESTW    K2, K2; \
	JNZ         FAIL; \
	FITBASE(Z0, KT, R11, FAIL); \
	FITBASE(Z2, KT, BX, FAIL); \
	VPBROADCASTD R11, Z8; \
	BSAMPLE(Z0, Z1, Z8, (R9)(R11*4), 64(R9)(R11*4), (R10)(R11*4), 64(R10)(R11*4), KT); \
	VADDPS      (SI)(R13*4), Z10, KT, Z10; \
	VMOVUPS     Z10, KT, (SI)(R13*4); \
	VPBROADCASTD BX, Z8; \
	BSAMPLE(Z2, Z3, Z8, (R9)(BX*4), 64(R9)(BX*4), (R10)(BX*4), 64(R10)(BX*4), KT); \
	VPERMPS     Z10, Z23, Z10; \
	VMOVDQA32.Z Z31, KT, Z8; \
	VPERMD      Z8, Z23, Z8; \
	VPTESTMD    Z8, Z8, K2; \
	MOVQ        R13, R15; \
	NEGQ        R15; \
	LEAQ        (AX)(R15*4), R15; \
	VADDPS      (R15), Z10, K2, Z10; \
	VMOVUPS     Z10, K2, (R15)

// The shallow form (h = 8 or 4) works in groups of G = 16/(2h) columns,
// one vector each: lane l is column c + l/(2h) of the group, and of that
// column's 2h lanes, position p = l mod 2h holds depth p for p < h and the
// mirror of depth 2h-1-p past it — the column's volume line, so the vector
// is one contiguous add into the accumulator. Its taps come from 2h-sample
// windows, one per piece of h lanes (a column's lower or mirror half), each
// based at the piece's least floor(v) clamped to [0, rw-2h]; the pieces of a
// row are packed into the two 16-sample halves of a 32-sample table (h = 8:
// one column's lower and mirror windows; h = 4: a column's two 8-sample
// windows per half, column c in the first, c+1 in the second), so WSAMPLE
// and BSAMPLE read them at index floor(v) − base + 2·(first lane of the
// piece). A group is fast when every lane's taps lie inside its window;
// otherwise the bordered path fits each piece's window over its live lanes
// (FITBASE) and samples the border in the kernel, and a group that holds a
// NaN or does not fit goes back to the caller whole. The groups of a tile
// run as one pipeline: while the cursor group's tables load and its taps
// are read, the next group's index math and window addresses — the next G
// columns, or the first of the next tile row — are issued.
//
//	DI  row0   SI  the cursor's acc   R14 rw   R12 c   R13 G
//	DX  the cursor row's lanes struct   AX  the next group's
//	R9, R10 columns c's and c+1's first row
//	R11, BX, CX, R8 the pieces' window bases, then their row-0 addresses
//	Z0 floor(v)  Z1 dv  Z2–Z5 the tables (row 0: Z2|Z3, row 1: Z4|Z5)
//	Z6 v (the mirror lanes vm1−v)  Z7 window index  Z10 per-lane base
//	Z13, Z18 the next group's dv and index, K7 its fast mask  Z20 its columns
//	Z14 each lane's piece's first lane  Z29 int32 2·Z14
//	Z16 1-du  Z17 du  Z19 wdis (the cursor's, per lane)  Z22 column per lane
//	Z23 int32 l/(2h)  Z24 int32 2h-2  Z25 int32 rw-2h  Z28 ry2·fk per lane
//	K6 the mirror lanes; the other constants as above
//
// L_PICK(DX) holds, per column, h-1 where v falls with the depth and 0
// where it rises: added to Z14 it is the lane of the piece's least v, since
// the mirror lanes run down the depths. The frame holds one lanes struct
// and its L_PICK per tile row, 224 bytes apart.
#define L_PICK 192

// SMATH(LP, COL, DV, IDX, KOK) is the index math of the group whose lanes'
// columns are COL in the tile row whose lanes struct is at LP, MATH's
// operations lane-wise:
//
//	v := (yb + ry2·fk + ry3)·f; on the mirror lanes v := vm1 − v  (Z6)
//	nv := floor(v) (Z0); dv := v − float32(nv)
//
// Each piece's window base is the nv of its least-v lane clamped to
// [0, rw-2h] (Z10), IDX the lane's table index, and KOK the lanes whose
// index within the piece is in 0 … 2h-2: only then are both taps inside
// the row and the window. A NaN or out-of-range v converts to 0x80000000
// and fails the test.
#define SMATH(LP, COL, DV, IDX, KOK) \
	VBROADCASTF64X4  L_F(LP), Z8; \
	VPERMPS          Z8, COL, Z8; \
	VBROADCASTF64X4  L_YB(LP), Z9; \
	VPERMPS          Z9, COL, Z9; \
	VBROADCASTI64X4  L_PICK(LP), Z11; \
	VPERMD           Z11, COL, Z11; \
	VPADDD           Z14, Z11, Z11; \
	VADDPS           Z28, Z9, Z6; \
	VADDPS           Z27, Z6, Z6; \
	VMULPS           Z8, Z6, Z6; \
	VSUBPS           Z6, Z26, K6, Z6; \
	VCVTPS2DQ.RD_SAE Z6, Z0; \
	VCVTDQ2PS        Z0, DV; \
	VSUBPS           DV, Z6, DV; \
	VPERMD           Z0, Z11, Z10; \
	VPMAXSD          Z21, Z10, Z10; \
	VPMINSD          Z25, Z10, Z10; \
	VPSUBD           Z10, Z0, IDX; \
	VPCMPUD          $2, Z24, IDX, KOK; \
	VPADDD           Z29, IDX, IDX

// SFIELDS(COL) loads the sampling registers of the cursor group, whose
// lanes' columns are COL: du (Z17), 1-du (Z16) and wdis (Z19).
#define SFIELDS(COL) \
	VBROADCASTF64X4 L_DU(DX), Z17; \
	VPERMPS         Z17, COL, Z17; \
	VSUBPS          Z17, Z30, Z16; \
	VBROADCASTF64X4 L_W(DX), Z19; \
	VPERMPS         Z19, COL, Z19

// SROW0(LP, C) and SROW1(LP, C) point R9 and R10 at the first detector
// rows of columns C and C+1 of the tile row whose lanes struct is at LP.
#define SROW0(LP, C) \
	MOVLQSX L_OFF(LP)(C*4), R9; \
	LEAQ    (DI)(R9*4), R9

#define SROW1(LP, C) \
	MOVLQSX L_OFF+4(LP)(C*4), R10; \
	LEAQ    (DI)(R10*4), R10

// SLEA8 and SLEA4 turn the pieces' window bases (R11, BX, and for h = 4
// CX, R8) into addresses in their columns' first rows; SBASES8 and SBASES4
// take the bases from the lanes of Z10 that start the pieces.
#define SLEA8 \
	LEAQ (R9)(R11*4), R11; \
	LEAQ (R9)(BX*4), BX

#define SLEA4 \
	SLEA8; \
	LEAQ (R10)(CX*4), CX; \
	LEAQ (R10)(R8*4), R8

#define SBASES8 \
	VMOVD         X10, R11; \
	VEXTRACTI32X4 $2, Z10, X11; \
	VMOVD         X11, BX; \
	SLEA8

#define SBASES4 \
	VMOVD         X10, R11; \
	VEXTRACTI32X4 $1, Z10, X11; \
	VMOVD         X11, BX; \
	VEXTRACTI32X4 $2, Z10, X11; \
	VMOVD         X11, CX; \
	VEXTRACTI32X4 $3, Z10, X11; \
	VMOVD         X11, R8; \
	SLEA4

// STABLES8 loads the h = 8 tables: piece 0's window and piece 1's, both in
// column c's rows, from the addresses R11 and BX.
#define STABLES8 \
	VMOVUPS (R11), Z2; \
	VMOVUPS (BX), Z3; \
	VMOVUPS (R11)(R14*4), Z4; \
	VMOVUPS (BX)(R14*4), Z5

// STABLES4 packs the h = 4 tables from four 8-sample windows: pieces 0 and
// 1 (R11, BX) in column c's rows, pieces 2 and 3 (CX, R8) in column c+1's.
#define STABLES4 \
	VMOVUPS      (R11), Y2; \
	VINSERTF64X4 $1, (BX), Z2, Z2; \
	VMOVUPS      (CX), Y3; \
	VINSERTF64X4 $1, (R8), Z3, Z3; \
	VMOVUPS      (R11)(R14*4), Y4; \
	VINSERTF64X4 $1, (BX)(R14*4), Z4, Z4; \
	VMOVUPS      (CX)(R14*4), Y5; \
	VINSERTF64X4 $1, (R8)(R14*4), Z5, Z5

// PIECE(MASK, GP) fits the window of the piece whose lanes are MASK over
// its live lanes into GP and writes it to those lanes of Z10.
#define PIECE(MASK, GP) \
	MOVL         MASK, R15; \
	KMOVW        R15, K1; \
	FITBASE(Z0, K1, GP, sstop); \
	VPBROADCASTD GP, K1, Z10

// func accumWindowAVX512(acc *float32, stride, h int, row0 *float32, rw int, r *[3][4]float32, umax float32, i, rows, j0, n, k0, q, c, kk int, vm1 float32) (stopQ, stopC, stopKK int, interior bool)
//
// The tile's column registers are LANES, one lanes struct per tile row, into
// this frame (regs + q·224, L_PICK beside each); when a u of the rows still
// to run is not interior the call returns at once with interior false.
// Otherwise it runs tile row q from column c, depth kk, then the rows after
// it; qs holds the cursor's row.
TEXT ·accumWindowAVX512(SB), $1856-153
	MOVQ         r+40(FP), SI
	VPBROADCASTD 24(SI), Y11
	MOVQ         h+16(FP), R14
	LEAQ         -1(R14), BX
	VPBROADCASTD BX, Y12
	MOVQ         q+96(FP), R12
	MOVQ         R12, qs-8(SP)
	MOVL         $0xFF, R13

lanesrow:
	IMUL3Q       $224, R12, DI
	LEAQ         regs-1856(SP), R15
	ADDQ         R15, DI
	MOVQ         i+56(FP), R15
	ADDQ         R12, R15
	VXORPS       X0, X0, X0
	VCVTSI2SSQ   R15, X0, X0
	VMOVSS       X0, fi-16(SP)
	LANES(fi-16(SP), umax+48(FP), j0+72(FP), n+80(FP), rw+32(FP))
	ANDL         AX, R13
	VMOVUPS      L_F(DI), Y10
	VPXOR        Y11, Y10, Y10
	VPSRAD       $31, Y10, Y10
	VPAND        Y12, Y10, Y10
	VMOVDQU      Y10, L_PICK(DI)
	INCQ         R12
	CMPQ         R12, rows+64(FP)
	JLT          lanesrow
	MOVQ         c+104(FP), R12
	CMPL         R13, $0xFF
	MOVQ         kk+112(FP), R13
	SETEQ        interior+152(FP)
	JNE          stop

	// Tile row q's lanes struct and accumulator.
	MOVQ   qs-8(SP), R15
	IMUL3Q $224, R15, DX
	LEAQ   regs-1856(SP), R11
	ADDQ   R11, DX
	MOVQ   acc+0(FP), DI
	IMULQ  stride+8(FP), R15
	LEAQ   (DI)(R15*4), DI

	VBROADCASTSS one<>(SB), Z30
	VBROADCASTSS 24(SI), Z28
	VBROADCASTSS 28(SI), Z27
	VBROADCASTSS vm1+120(FP), Z26
	MOVQ         rw+32(FP), R11
	LEAQ         -2(R11), BX
	VPBROADCASTD BX, Z15
	VPXORD       Z21, Z21, Z21
	MOVL         $1, BX
	VPBROADCASTD BX, Z31
	CMPQ         R14, $8
	JEQ          shallow
	CMPQ         R14, $4
	JEQ          shallow

	VBROADCASTSS sixteen<>(SB), Z29
	LEAQ         -32(R11), BX
	VPBROADCASTD BX, Z25
	MOVL         $30, BX
	VPBROADCASTD BX, Z24
	VMOVDQU32    revlanes<>(SB), Z23
	SCOLUMN

prime:
	// The pipeline starts (and restarts behind a bordered block) with the
	// cursor's own index math in set A.
	MCOLUMN(R12, R11)
	FKINIT(R13, R11)
	MATH(Z0, Z1, Z2, Z3, R11, BX, K5)
	LEAQ  16(R13), R15
	CMPQ  R15, R14
	JLE   pendA
	KXORW K5, K5, K5

pendA:
	// Set A holds the cursor's block. Issue the next block's index math
	// into set B, then sample set A.
	LEAQ 16(R13), R15
	CMPQ R15, R14
	JLT  stepA
	LEAQ 1(R12), CX
	CMPQ CX, n+80(FP)
	JGE  lastA
	MCOLUMN(CX, R8)
	XORL R15, R15
	FKINIT(R15, R8)
	JMP  mathA

stepA:
	VADDPS Z29, Z22, Z22

mathA:
	MATH(Z4, Z5, Z6, Z7, CX, R8, K6)
	ADDQ  $16, R15
	CMPQ  R15, R14
	JLE   sampleA
	KXORW K6, K6, K6

sampleA:
	KORTESTW K5, K5
	JCC      slow
	FAST(Z0, Z1, Z2, Z3, R11, BX)
	ADDQ     $16, R13
	CMPQ     R13, R14
	JLT      pendB
	INCQ     R12
	XORL     R13, R13
	SCOLUMN

pendB:
	// The same with the sets swapped.
	LEAQ 16(R13), R15
	CMPQ R15, R14
	JLT  stepB
	LEAQ 1(R12), R11
	CMPQ R11, n+80(FP)
	JGE  lastB
	MCOLUMN(R11, BX)
	XORL R15, R15
	FKINIT(R15, BX)
	JMP  mathB

stepB:
	VADDPS Z29, Z22, Z22

mathB:
	MATH(Z0, Z1, Z2, Z3, R11, BX, K5)
	ADDQ  $16, R15
	CMPQ  R15, R14
	JLE   sampleB
	KXORW K5, K5, K5

sampleB:
	KORTESTW K6, K6
	JCC      slow
	FAST(Z4, Z5, Z6, Z7, CX, R8)
	ADDQ     $16, R13
	CMPQ     R13, R14
	JLT      pendA
	INCQ     R12
	XORL     R13, R13
	SCOLUMN
	JMP      pendA

lastA:
	// The cursor's block is the last one.
	KORTESTW K5, K5
	JCC      slow
	FAST(Z0, Z1, Z2, Z3, R11, BX)
	JMP      nextrow

lastB:
	KORTESTW K6, K6
	JCC      slow
	FAST(Z4, Z5, Z6, Z7, CX, R8)
	JMP      nextrow

slow:
	// K1 and K7: the block's depths.
	PREP
	MOVQ    R14, R11
	SUBQ    R13, R11
	MOVL    $0xFFFF, BX
	CMPQ    R11, $16
	JGE     slowmask
	LEAQ    tailmask<>(SB), BX
	MOVWLZX (BX)(R11*2), BX

slowmask:
	KMOVW BX, K1
	KMOVW BX, K7
	TRY(K1, halves)
	JMP   slowdone

halves:
	// Retry as two 8-depth windows; a block of at most 8 depths is already
	// one, and goes back to the caller.
	KMOVW K7, R11
	CMPL  R11, $0xFF
	JLS   stop
	MOVL  $0xFF, R11
	KMOVW R11, K1
	TRY(K1, stop)
	MOVL  $0xFF00, R11
	KMOVW R11, K1
	KANDW K7, K1, K1
	TRY(K1, upper)

slowdone:
	ADDQ $16, R13
	CMPQ R13, R14
	JLT  prime
	INCQ R12
	XORL R13, R13
	CMPQ R12, n+80(FP)
	JGE  nextrow
	SCOLUMN
	JMP  prime

upper:
	ADDQ $8, R13
	JMP  stop

nextrow:
	// The tile row is done; the next one starts at its column 0.
	MOVQ  qs-8(SP), R15
	INCQ  R15
	MOVQ  R15, qs-8(SP)
	CMPQ  R15, rows+64(FP)
	JGE   finish
	ADDQ  $224, DX
	MOVQ  stride+8(FP), R15
	LEAQ  (DI)(R15*4), DI
	XORL  R12, R12
	XORL  R13, R13
	SCOLUMN
	JMP   prime

shallow:
	BSFQ         R14, CX
	INCQ         CX
	MOVL         $16, R13
	SHRQ         CX, R13
	VMOVDQU32    iota16<>(SB), Z8
	VMOVQ        CX, X9
	VPSRLD       X9, Z8, Z23
	LEAQ         -1(R14), BX
	VPBROADCASTD BX, Z9
	VPANDND      Z8, Z9, Z14
	VPADDD       Z14, Z14, Z29
	LEAQ         (R14)(R14*1), BX
	LEAQ         -2(BX), R15
	VPBROADCASTD R15, Z24
	SUBQ         BX, R11
	VPBROADCASTD R11, Z25

	// fk = float32(k0 + depth) per lane, where depth is p = l mod 2h, or
	// 2h-1-p on the mirror lanes (p & h ≠ 0); a group's depths never
	// change, so ry2·fk is formed once.
	DECQ         BX
	VPBROADCASTD BX, Z10
	VPANDD       Z10, Z8, Z11
	VPBROADCASTD R14, Z12
	VPTESTMD     Z12, Z11, K6
	VPXORD       Z10, Z11, K6, Z11
	MOVQ         k0+88(FP), R15
	VPBROADCASTD R15, Z12
	VPADDD       Z12, Z11, Z11
	VCVTDQ2PS    Z11, Z11
	VMULPS       Z11, Z28, Z28
	MOVQ         R12, SI
	IMULQ        R14, SI
	LEAQ         (DI)(SI*8), SI
	MOVQ         row0+24(FP), DI
	MOVQ         rw+32(FP), R14

sprime:
	// The pipeline starts (and restarts behind a bordered group) with the
	// cursor group's index math and window addresses.
	VPBROADCASTD R12, Z22
	VPADDD       Z23, Z22, Z22
	SMATH(DX, Z22, Z1, Z7, K5)
	SROW0(DX, R12)
	CMPQ         R13, $1
	JNE          sprime4
	SBASES8
	JMP          sloop

sprime4:
	SROW1(DX, R12)
	SBASES4

sloop:
	// The cursor group's math is in Z0/Z1/Z6/Z7/K5 and its window
	// addresses in R11, BX, CX, R8. Load its tables, issue the next
	// group's math and addresses, then sample the cursor group.
	KORTESTW K5, K5
	JCC      sslow
	SFIELDS(Z22)
	CMPQ     R13, $1
	JNE      stab4
	STABLES8
	JMP      snext

stab4:
	STABLES4

snext:
	// The next group: the next G columns of the row (lanes struct AX =
	// DX), or column 0 of the next row (AX = DX + 224).
	LEAQ (R12)(R13*1), R15
	MOVQ DX, AX
	CMPQ R15, n+80(FP)
	JLT  snextmath
	MOVQ qs-8(SP), R9
	INCQ R9
	CMPQ R9, rows+64(FP)
	JGE  slast
	XORL R15, R15
	ADDQ $224, AX

snextmath:
	VPBROADCASTD R15, Z20
	VPADDD       Z23, Z20, Z20
	SMATH(AX, Z20, Z13, Z18, K7)
	SROW0(AX, R15)
	CMPQ         R13, $1
	JNE          snext4
	SBASES8
	JMP          snextacc

snext4:
	SROW1(AX, R15)
	SBASES4

snextacc:
	// R9: the next group's accumulator, the next 64 bytes of the row or
	// the start of the next row's.
	LEAQ  64(SI), R9
	CMPQ  AX, DX
	JEQ   ssample
	MOVQ  qs-8(SP), R9
	INCQ  R9
	MOVQ  R9, qs-8(SP)
	IMULQ stride+8(FP), R9
	SHLQ  $2, R9
	ADDQ  acc+0(FP), R9

ssample:
	WSAMPLE(Z7, Z1, Z2, Z3, Z4, Z5)
	VADDPS    (SI), Z10, Z10
	VMOVUPS   Z10, (SI)
	MOVQ      R9, SI
	MOVQ      AX, DX
	MOVQ      R15, R12
	VMOVDQA32 Z20, Z22
	VMOVAPS   Z13, Z1
	VMOVDQA32 Z18, Z7
	KMOVW     K7, K5
	JMP       sloop

slast:
	WSAMPLE(Z7, Z1, Z2, Z3, Z4, Z5)
	VADDPS  (SI), Z10, Z10
	VMOVUPS Z10, (SI)
	JMP     finish

sslow:
	// The bordered group at the cursor: PREP's NaN test and v ≤ −1 rule
	// on its v (Z6), then each piece's window over its live lanes.
	SFIELDS(Z22)
	VCMPPS       $3, Z6, Z6, K2
	KORTESTW     K2, K2
	JNZ          sstop
	DEAD(Z6, Z0, K2)
	SROW0(DX, R12)
	CMPQ         R13, $1
	JNE          sslow4
	PIECE($0x00FF, R11)
	PIECE($0xFF00, BX)
	VPSUBD       Z29, Z10, Z10
	SLEA8
	STABLES8
	JMP          sbsample

sslow4:
	SROW1(DX, R12)
	PIECE($0x000F, R11)
	PIECE($0x00F0, BX)
	PIECE($0x0F00, CX)
	PIECE($0xF000, R8)
	VPSUBD  Z29, Z10, Z10
	SLEA4
	STABLES4

sbsample:
	KXNORW  K1, K1, K1
	BSAMPLE(Z0, Z1, Z10, Z2, Z3, Z4, Z5, K1)
	VADDPS  (SI), Z10, Z10
	VMOVUPS Z10, (SI)
	ADDQ    $64, SI
	ADDQ    R13, R12
	CMPQ    R12, n+80(FP)
	JLT     sprime
	MOVQ    qs-8(SP), R15
	INCQ    R15
	MOVQ    R15, qs-8(SP)
	CMPQ    R15, rows+64(FP)
	JGE     finish
	XORL    R12, R12
	ADDQ    $224, DX
	IMULQ   stride+8(FP), R15
	SHLQ    $2, R15
	MOVQ    acc+0(FP), SI
	ADDQ    R15, SI
	JMP     sprime

sstop:
	XORL R13, R13
	JMP  stop

finish:
	MOVQ rows+64(FP), R15
	MOVQ R15, qs-8(SP)
	XORL R12, R12
	XORL R13, R13

stop:
	VZEROUPPER
	MOVQ qs-8(SP), R15
	MOVQ R15, stopQ+128(FP)
	MOVQ R12, stopC+136(FP)
	MOVQ R13, stopKK+144(FP)
	RET

// func addAVX2(dst, src *float32, n int)
TEXT ·addAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX
	JZ   addret

add8:
	VMOVUPS (DI), Y0
	VADDPS  (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    CX
	JNZ     add8
	VZEROUPPER

addret:
	RET
