//go:build amd64

#include "textflag.h"

// The accumulation kernels behind accumQuad (and, at the end of the file,
// the register-resident strided kernel behind AccumStrided):
//
//	dst[j] += x0·r0[j]; dst[j] += x1·r1[j]; dst[j] += x2·r2[j]; dst[j] += x3·r3[j]
//
// for j in [0, n), the four addends applied to each dst element in exactly
// that order. Packed single-precision MULPS/ADDPS round identically to the
// scalar ops, so every kernel is bit-identical to accumQuadGo. None may use
// an FMA instruction: a fused multiply-add rounds once instead of twice
// and changes the bits (TestAccumKernelsHaveNoFMA guards this file).

// Register use shared by the kernels: AX dst, BX r0, CX r1, DX r2, SI r3,
// DI elements left, R8 element index; the broadcast scalars x0..x3 live in
// the fourth to seventh vector registers (X/Y/Z 4-7).
#define LOADARGS \
	MOVQ dst+0(FP), AX; \
	MOVQ r0+8(FP), BX; \
	MOVQ r1+16(FP), CX; \
	MOVQ r2+24(FP), DX; \
	MOVQ r3+32(FP), SI; \
	MOVQ n+40(FP), DI; \
	XORQ R8, R8

// ACC4 folds the four addends into one group of dst elements at index R8
// with the width's move/multiply/add instructions, D the accumulator and P
// the product register (VEX three-operand form).
#define ACC4(MOV, MUL, ADD, D, P, K0, K1, K2, K3) \
	MOV (AX)(R8*4), D; \
	MOV (BX)(R8*4), P; \
	MUL K0, P, P; \
	ADD P, D, D; \
	MOV (CX)(R8*4), P; \
	MUL K1, P, P; \
	ADD P, D, D; \
	MOV (DX)(R8*4), P; \
	MUL K2, P, P; \
	ADD P, D, D; \
	MOV (SI)(R8*4), P; \
	MUL K3, P, P; \
	ADD P, D, D; \
	MOV D, (AX)(R8*4)

// func accumQuadAVX512(dst, r0, r1, r2, r3 *float32, n int, x0, x1, x2, x3 float32)
//
// 16 ZMM lanes per step; the tail steps down through one 8-lane YMM group,
// one 4-lane XMM group and scalar elements.
TEXT ·accumQuadAVX512(SB), NOSPLIT, $0-64
	LOADARGS
	VBROADCASTSS x0+48(FP), Z4
	VBROADCASTSS x1+52(FP), Z5
	VBROADCASTSS x2+56(FP), Z6
	VBROADCASTSS x3+60(FP), Z7
	CMPQ DI, $16
	JL   tail8

loop16:
	ACC4(VMOVUPS, VMULPS, VADDPS, Z0, Z1, Z4, Z5, Z6, Z7)
	ADDQ $16, R8
	SUBQ $16, DI
	CMPQ DI, $16
	JGE  loop16

tail8:
	CMPQ DI, $8
	JL   tail4
	ACC4(VMOVUPS, VMULPS, VADDPS, Y0, Y1, Y4, Y5, Y6, Y7)
	ADDQ $8, R8
	SUBQ $8, DI

tail4:
	CMPQ DI, $4
	JL   tail1
	ACC4(VMOVUPS, VMULPS, VADDPS, X0, X1, X4, X5, X6, X7)
	ADDQ $4, R8
	SUBQ $4, DI

tail1:
	TESTQ DI, DI
	JE    done

loop1:
	ACC4(VMOVSS, VMULSS, VADDSS, X0, X1, X4, X5, X6, X7)
	INCQ R8
	DECQ DI
	JNE  loop1

done:
	VZEROUPPER
	RET

// func accumQuadAVX(dst, r0, r1, r2, r3 *float32, n int, x0, x1, x2, x3 float32)
//
// 8 YMM lanes per step; the tail steps down through one 4-lane XMM group
// and scalar elements.
TEXT ·accumQuadAVX(SB), NOSPLIT, $0-64
	LOADARGS
	VBROADCASTSS x0+48(FP), Y4
	VBROADCASTSS x1+52(FP), Y5
	VBROADCASTSS x2+56(FP), Y6
	VBROADCASTSS x3+60(FP), Y7
	CMPQ DI, $8
	JL   tail4

loop8:
	ACC4(VMOVUPS, VMULPS, VADDPS, Y0, Y1, Y4, Y5, Y6, Y7)
	ADDQ $8, R8
	SUBQ $8, DI
	CMPQ DI, $8
	JGE  loop8

tail4:
	CMPQ DI, $4
	JL   tail1
	ACC4(VMOVUPS, VMULPS, VADDPS, X0, X1, X4, X5, X6, X7)
	ADDQ $4, R8
	SUBQ $4, DI

tail1:
	TESTQ DI, DI
	JE    done

loop1:
	ACC4(VMOVSS, VMULSS, VADDSS, X0, X1, X4, X5, X6, X7)
	INCQ R8
	DECQ DI
	JNE  loop1

done:
	VZEROUPPER
	RET

// func accumQuadSSE2(dst, r0, r1, r2, r3 *float32, n int, x0, x1, x2, x3 float32)
//
// 4 XMM lanes per step, scalar tail; legacy SSE encoding, so no
// VZEROUPPER is needed.
TEXT ·accumQuadSSE2(SB), NOSPLIT, $0-64
	LOADARGS

	// Broadcast the four scalars across the lanes.
	MOVSS  x0+48(FP), X4
	SHUFPS $0, X4, X4
	MOVSS  x1+52(FP), X5
	SHUFPS $0, X5, X5
	MOVSS  x2+56(FP), X6
	SHUFPS $0, X6, X6
	MOVSS  x3+60(FP), X7
	SHUFPS $0, X7, X7

	CMPQ DI, $4
	JL   tail

loop4:
	MOVUPS (AX)(R8*4), X0
	MOVUPS (BX)(R8*4), X1
	MULPS  X4, X1
	ADDPS  X1, X0
	MOVUPS (CX)(R8*4), X2
	MULPS  X5, X2
	ADDPS  X2, X0
	MOVUPS (DX)(R8*4), X3
	MULPS  X6, X3
	ADDPS  X3, X0
	MOVUPS (SI)(R8*4), X1
	MULPS  X7, X1
	ADDPS  X1, X0
	MOVUPS X0, (AX)(R8*4)
	ADDQ   $4, R8
	SUBQ   $4, DI
	CMPQ   DI, $4
	JGE    loop4

tail:
	TESTQ DI, DI
	JE    done

tail1:
	MOVSS (AX)(R8*4), X0
	MOVSS (BX)(R8*4), X1
	MULSS X4, X1
	ADDSS X1, X0
	MOVSS (CX)(R8*4), X2
	MULSS X5, X2
	ADDSS X2, X0
	MOVSS (DX)(R8*4), X3
	MULSS X6, X3
	ADDSS X3, X0
	MOVSS (SI)(R8*4), X1
	MULSS X7, X1
	ADDSS X1, X0
	MOVSS X0, (AX)(R8*4)
	INCQ  R8
	DECQ  DI
	JNE   tail1

done:
	RET

// func accumStridedAVX512(dst, x, b *float32, n, k, stride int)
//
// The kernel behind AccumStrided:
//
//	dst[j] += x[0]·b[j]; dst[j] += x[1]·b[stride+j]; …; dst[j] += x[k-1]·b[(k-1)·stride+j]
//
// for j in [0, n), k ascending, VMULPS then VADDPS (never FMA), so it is
// bit-identical to accumStridedGo. Each 16-lane group of dst stays in a ZMM
// register across the whole k loop: blocks of four groups first (four
// independent chains per b-row), then single groups under the K1 lane
// mask, which covers the last partial group — masked-off lanes are neither
// loaded (so cannot fault) nor stored. Requires n > 0 and k > 0.
//
// Registers: DI dst, SI x, BX b at the current group, DX elements left,
// R8 k, R9 stride in bytes; R10/R11/R12 walk x, the b-row and the k count
// of one group's loop; Z4 holds the broadcast x[k].
TEXT ·accumStridedAVX512(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), DX
	MOVQ k+32(FP), R8
	MOVQ stride+40(FP), R9
	SHLQ $2, R9

block64:
	CMPQ DX, $64
	JL   group16
	VMOVUPS (DI), Z0
	VMOVUPS 64(DI), Z1
	VMOVUPS 128(DI), Z2
	VMOVUPS 192(DI), Z3
	MOVQ    SI, R10
	MOVQ    BX, R11
	MOVQ    R8, R12

loop64:
	VBROADCASTSS (R10), Z4
	VMOVUPS      (R11), Z5
	VMULPS       Z4, Z5, Z5
	VADDPS       Z5, Z0, Z0
	VMOVUPS      64(R11), Z6
	VMULPS       Z4, Z6, Z6
	VADDPS       Z6, Z1, Z1
	VMOVUPS      128(R11), Z7
	VMULPS       Z4, Z7, Z7
	VADDPS       Z7, Z2, Z2
	VMOVUPS      192(R11), Z8
	VMULPS       Z4, Z8, Z8
	VADDPS       Z8, Z3, Z3
	ADDQ         $4, R10
	ADDQ         R9, R11
	DECQ         R12
	JNE          loop64

	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	ADDQ    $256, DI
	ADDQ    $256, BX
	SUBQ    $64, DX
	JMP     block64

group16:
	TESTQ DX, DX
	JE    done

	// K1 = the low min(DX, 16) lanes.
	MOVQ  DX, CX
	CMPQ  CX, $16
	JLE   mask
	MOVQ  $16, CX

mask:
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K1

	VMOVUPS.Z (DI), K1, Z0
	MOVQ      SI, R10
	MOVQ      BX, R11
	MOVQ      R8, R12

loop16:
	VBROADCASTSS (R10), Z4
	VMOVUPS.Z    (R11), K1, Z5
	VMULPS       Z4, Z5, Z5
	VADDPS       Z5, Z0, Z0
	ADDQ         $4, R10
	ADDQ         R9, R11
	DECQ         R12
	JNE          loop16

	VMOVUPS Z0, K1, (DI)
	ADDQ    $64, DI
	ADDQ    $64, BX
	SUBQ    CX, DX
	JMP     group16

done:
	VZEROUPPER
	RET
