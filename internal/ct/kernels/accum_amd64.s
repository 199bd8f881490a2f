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
