#include "textflag.h"

// The partition's block classification, four rows to a compare:
// VPCMPGTQ against the broadcast pivot and VMOVMSKPD give a 4-bit mask
// of the rows > pivot (flipped: <= pivot). A 16-entry table turns the
// mask into the packed byte offsets, within the four, of the rows the
// kernel wants, in the order the Go loop finds them. Adding the four
// rows' first offset to every byte and one 4-byte store at off[n] write
// them, and POPCNT moves n on. The bytes past the wanted ones are
// overwritten by the next store or lie past n. n never exceeds the
// offset of the current four, so the store stays inside off.

// leftOffsets[m]: the lanes j (ascending) whose bit is set in m.
// rightOffsets[m]: 3-j for the lanes j (descending) whose bit is set in
// m, the flipped (<= pivot) mask.
DATA leftOffsets<>+0(SB)/4, $0x00000000
DATA leftOffsets<>+4(SB)/4, $0x00000000
DATA leftOffsets<>+8(SB)/4, $0x00000001
DATA leftOffsets<>+12(SB)/4, $0x00000100
DATA leftOffsets<>+16(SB)/4, $0x00000002
DATA leftOffsets<>+20(SB)/4, $0x00000200
DATA leftOffsets<>+24(SB)/4, $0x00000201
DATA leftOffsets<>+28(SB)/4, $0x00020100
DATA leftOffsets<>+32(SB)/4, $0x00000003
DATA leftOffsets<>+36(SB)/4, $0x00000300
DATA leftOffsets<>+40(SB)/4, $0x00000301
DATA leftOffsets<>+44(SB)/4, $0x00030100
DATA leftOffsets<>+48(SB)/4, $0x00000302
DATA leftOffsets<>+52(SB)/4, $0x00030200
DATA leftOffsets<>+56(SB)/4, $0x00030201
DATA leftOffsets<>+60(SB)/4, $0x03020100
GLOBL leftOffsets<>(SB), RODATA|NOPTR, $64

DATA rightOffsets<>+0(SB)/4, $0x00000000
DATA rightOffsets<>+4(SB)/4, $0x00000003
DATA rightOffsets<>+8(SB)/4, $0x00000002
DATA rightOffsets<>+12(SB)/4, $0x00000302
DATA rightOffsets<>+16(SB)/4, $0x00000001
DATA rightOffsets<>+20(SB)/4, $0x00000301
DATA rightOffsets<>+24(SB)/4, $0x00000201
DATA rightOffsets<>+28(SB)/4, $0x00030201
DATA rightOffsets<>+32(SB)/4, $0x00000000
DATA rightOffsets<>+36(SB)/4, $0x00000300
DATA rightOffsets<>+40(SB)/4, $0x00000200
DATA rightOffsets<>+44(SB)/4, $0x00030200
DATA rightOffsets<>+48(SB)/4, $0x00000100
DATA rightOffsets<>+52(SB)/4, $0x00030100
DATA rightOffsets<>+56(SB)/4, $0x00020100
DATA rightOffsets<>+60(SB)/4, $0x03020100
GLOBL rightOffsets<>(SB), RODATA|NOPTR, $64
// MASK compares the four rows at (SI) with the pivot in Y0: bit j of AX
// is set when row j is > pivot.
#define MASK \
	VMOVDQU   (SI), Y1; \
	VPCMPGTQ  Y0, Y1, Y1; \
	VMOVMSKPD Y1, AX

// STORE writes the offsets of the rows set in AX to (DI)(CX*1) through
// the table at R8, moves n (CX) on, and R9, the next four rows' first
// offset in every byte.
#define STORE \
	MOVL    (R8)(AX*4), BX; \
	ADDL    R9, BX; \
	MOVL    BX, (DI)(CX*1); \
	POPCNTL AX, AX; \
	ADDQ    AX, CX; \
	ADDL    $0x04040404, R9

// func misplacedLeftAVX2(blk *[partBlock]int64, pivot int64, off *[partBlock]uint8) (n int)
TEXT ·misplacedLeftAVX2(SB), NOSPLIT, $0-32
	MOVQ         blk+0(FP), SI
	VPBROADCASTQ pivot+8(FP), Y0
	MOVQ         off+16(FP), DI
	LEAQ         leftOffsets<>(SB), R8
	XORQ         CX, CX
	XORL         R9, R9
	MOVQ         $16, R10

left:
	MASK
	STORE
	ADDQ $32, SI
	MASK
	STORE
	ADDQ $32, SI
	DECQ R10
	JNZ  left
	VZEROUPPER
	MOVQ CX, n+24(FP)
	RET

// The right block is read from its back: the first four rows classified
// are its last, and lane 3 is offset 0. The rows it wants are the <=
// pivot ones, the mask's clear bits.
//
// func misplacedRightAVX2(blk *[partBlock]int64, pivot int64, off *[partBlock]uint8) (n int)
TEXT ·misplacedRightAVX2(SB), NOSPLIT, $0-32
	MOVQ         blk+0(FP), SI
	VPBROADCASTQ pivot+8(FP), Y0
	MOVQ         off+16(FP), DI
	LEAQ         rightOffsets<>(SB), R8
	XORQ         CX, CX
	XORL         R9, R9
	MOVQ         $16, R10
	ADDQ         $992, SI

right:
	MASK
	XORL $15, AX
	STORE
	SUBQ $32, SI
	MASK
	XORL $15, AX
	STORE
	SUBQ $32, SI
	DECQ R10
	JNZ  right
	VZEROUPPER
	MOVQ CX, n+24(FP)
	RET
