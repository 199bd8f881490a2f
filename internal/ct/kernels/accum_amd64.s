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

DATA eight<>+0(SB)/4, $8
GLOBL eight<>(SB), RODATA|NOPTR, $4

// Register plan for accumBlocksAVX2. Every constant is set up with VEX
// broadcasts from the arguments or RODATA: a legacy-SSE instruction between
// the first VEX instruction and VZEROUPPER would cost a state transition per
// call.
//
//	AX  k consumed so far (also the element offset into sum and sym)
//	CX  blocks left          DX  range-test lane mask
//	DI  sum   SI  sym        R8  row0   R9  row1
//	Y8  vmax  Y9  du   Y10 1     Y11 1-du
//	Y12 f     Y13 wdis Y14 ry2   Y15 int32(k0+kk) per lane
//	Y0  v     Y1  vSym Y2–Y7 scratch

// SAMPLE(V, ACC) adds wdis·bilinear(V, u) to the 8 accumulators at
// ACC[AX:AX+8]; every lane of V is known to be in [0, vmax). The arithmetic
// is AccumLinePairRef's, lane-wise and in the same order:
//
//	nv := int(v); dv := v - float32(nv)                      (Y2; V)
//	t1 := row0[nv]*(1-dv) + row0[nv+1]*dv                    (Y5)
//	t2 := row1[nv]*(1-dv) + row1[nv+1]*dv                    (Y6)
//	acc += wdis * (t1*(1-du) + t2*du)
//
// A gather clears its mask register as it completes, so Y4 is re-armed to
// all-ones before each one; destination, index and mask stay distinct.
#define SAMPLE(V, ACC) \
	VCVTTPS2DQ V, Y2; \
	VCVTDQ2PS  Y2, Y3; \
	VSUBPS     Y3, V, V; \
	VSUBPS     V, Y10, Y3; \
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
	VADDPS     (ACC)(AX*4), Y5, Y5; \
	VMOVUPS    Y5, (ACC)(AX*4)

// func accumBlocksAVX2(sum, sym *float32, n int, row0, row1 *float32, vmax, du, f, wdis, yb, ry2, ry3, vm1 float32, k0 int) int
TEXT ·accumBlocksAVX2(SB), NOSPLIT, $0-88
	MOVQ sum+0(FP), DI
	MOVQ sym+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ row0+24(FP), R8
	MOVQ row1+32(FP), R9
	XORQ AX, AX
	SHRQ $3, CX
	JZ   ret

	VBROADCASTSS vmax+40(FP), Y8
	VBROADCASTSS du+44(FP), Y9
	VBROADCASTSS one<>(SB), Y10
	VSUBPS       Y9, Y10, Y11
	VBROADCASTSS f+48(FP), Y12
	VBROADCASTSS wdis+52(FP), Y13
	VBROADCASTSS ry2+60(FP), Y14
	VPBROADCASTD k0+72(FP), Y15
	VPADDD       lanes<>(SB), Y15, Y15

block:
	// v = (yb + ry2·fk + ry3)·f ; vSym = vm1 − v
	VCVTDQ2PS    Y15, Y0
	VMULPS       Y0, Y14, Y0
	VBROADCASTSS yb+56(FP), Y2
	VADDPS       Y0, Y2, Y0
	VBROADCASTSS ry3+64(FP), Y2
	VADDPS       Y2, Y0, Y0
	VMULPS       Y12, Y0, Y0
	VBROADCASTSS vm1+68(FP), Y2
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
	VMOVMSKPS Y3, DX
	CMPL      DX, $0xFF
	JNE       done

	SAMPLE(Y0, DI)
	SAMPLE(Y1, SI)

	ADDQ         $8, AX
	VPBROADCASTD eight<>(SB), Y2
	VPADDD       Y2, Y15, Y15
	DECQ         CX
	JNZ          block

done:
	VZEROUPPER

ret:
	MOVQ AX, ret+80(FP)
	RET
