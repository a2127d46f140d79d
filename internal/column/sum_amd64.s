#include "textflag.h"

// func sumRangeAVX2(vs []int64, lo int64, span uint64) (sum, miss int64)
//
// within's unsigned test uint64(v-lo) <= span, four rows at a time.
// AVX2 compares 64-bit lanes signed only, and flipping the sign bit of
// both sides turns the unsigned order into the signed one: so
// x = (v-lo) ^ 2^63, computed as v - (lo ^ 2^63), is a miss exactly
// when x > span ^ 2^63 (VPCMPGTQ, all ones). The rows that are not
// missed are summed with a wrapping add of v &^ miss; the misses are
// counted by subtracting their all-ones lanes. Two accumulators of each
// keep the adds off one dependency chain.
TEXT ·sumRangeAVX2(SB), NOSPLIT, $0-56
	MOVQ vs_base+0(FP), SI
	MOVQ vs_len+8(FP), CX
	MOVQ lo+24(FP), AX
	MOVQ span+32(FP), BX
	MOVQ $0x8000000000000000, DX
	XORQ DX, AX
	XORQ DX, BX
	MOVQ AX, X0
	VPBROADCASTQ X0, Y0
	MOVQ BX, X1
	VPBROADCASTQ X1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	SHRQ $3, CX
	JZ   fold

loop:
	VMOVDQU  (SI), Y6
	VMOVDQU  32(SI), Y7
	VPSUBQ   Y0, Y6, Y8
	VPSUBQ   Y0, Y7, Y9
	VPCMPGTQ Y1, Y8, Y8
	VPCMPGTQ Y1, Y9, Y9
	VPANDN   Y6, Y8, Y6
	VPANDN   Y7, Y9, Y7
	VPADDQ   Y6, Y2, Y2
	VPADDQ   Y7, Y3, Y3
	VPSUBQ   Y8, Y4, Y4
	VPSUBQ   Y9, Y5, Y5
	ADDQ     $64, SI
	DECQ     CX
	JNZ      loop

fold:
	VPADDQ       Y3, Y2, Y2
	VPADDQ       Y5, Y4, Y4
	VEXTRACTI128 $1, Y2, X3
	VEXTRACTI128 $1, Y4, X5
	VPADDQ       X3, X2, X2
	VPADDQ       X5, X4, X4
	VPSHUFD      $0x4e, X2, X3
	VPSHUFD      $0x4e, X4, X5
	VPADDQ       X3, X2, X2
	VPADDQ       X5, X4, X4
	MOVQ         X2, AX
	MOVQ         X4, BX
	VZEROUPPER
	MOVQ         AX, sum+40(FP)
	MOVQ         BX, miss+48(FP)
	RET
