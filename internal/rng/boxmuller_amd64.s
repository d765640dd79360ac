//go:build amd64

#include "textflag.h"

// The AVX-512F Box-Muller kernel: for 8 pairs (u, v) per step it computes
//
//	mag = Sqrt(-2·Log(u)); sin, cos = Sincos(2π·v); c, s = mag·cos, mag·sin
//
// replaying, lane by lane, the exact operation sequence of the scalar path
// on amd64: math.Log is the hand-written archLog ($GOROOT/src/math/
// log_amd64.s) and math.Sincos is the Go code in sincos.go. Every step is
// an IEEE-754 packed op (add, sub, mul, div, sqrt, exact conversions, bit
// logic), each rounding exactly like its scalar twin, so every lane is
// bit-identical to boxMuller. None may use an FMA instruction: a fused
// multiply-add rounds once instead of twice and changes the bits
// (TestBoxMullerKernelHasNoFMA guards this file). Inputs are the domain of
// the v1 stream, u in (0, 1) and v in [0, 1), so archLog's zero, negative,
// Inf and NaN branches and Sincos's special cases and Payne-Hanek
// reduction are unreachable; Sincos(0) = (0, 1) also falls out of the
// general path.

// Constants, broadcast from memory one 8-byte entry at a time.
DATA bmc<>+0(SB)/8, $0x000FFFFFFFFFFFFF   // mantissa mask
DATA bmc<>+8(SB)/8, $0x3FE0000000000000   // 0.5
DATA bmc<>+16(SB)/8, $0x7FF               // exponent mask
DATA bmc<>+24(SB)/8, $0x3FE               // exponent bias of [0.5, 1)
DATA bmc<>+32(SB)/8, $0x3FE6A09E667F3BCD  // HSqrt2 = √2/2
DATA bmc<>+40(SB)/8, $0x3FF0000000000000  // 1.0
DATA bmc<>+48(SB)/8, $0x4000000000000000  // 2.0
DATA bmc<>+56(SB)/8, $0x3FE5555555555593  // L1
DATA bmc<>+64(SB)/8, $0x3FD999999997FA04  // L2
DATA bmc<>+72(SB)/8, $0x3FD2492494229359  // L3
DATA bmc<>+80(SB)/8, $0x3FCC71C51D8E78AF  // L4
DATA bmc<>+88(SB)/8, $0x3FC7466496CB03DE  // L5
DATA bmc<>+96(SB)/8, $0x3FC39A09D078C69F  // L6
DATA bmc<>+104(SB)/8, $0x3FC2F112DF3E5244 // L7
DATA bmc<>+112(SB)/8, $0x3FE62E42FEE00000 // Ln2Hi
DATA bmc<>+120(SB)/8, $0x3DEA39EF35793C76 // Ln2Lo
DATA bmc<>+128(SB)/8, $0xC000000000000000 // -2.0
DATA bmc<>+136(SB)/8, $0x401921FB54442D18 // 2π
DATA bmc<>+144(SB)/8, $0x3FF45F306DC9C883 // 4/π
DATA bmc<>+152(SB)/8, $0x3FE921FB40000000 // PI4A
DATA bmc<>+160(SB)/8, $0x3E64442D00000000 // PI4B
DATA bmc<>+168(SB)/8, $0x3CE8469898CC5170 // PI4C
DATA bmc<>+176(SB)/8, $0x3DE5D8FD1FD19CCD // _sin[0]
DATA bmc<>+184(SB)/8, $0xBE5AE5E5A9291F5D // _sin[1]
DATA bmc<>+192(SB)/8, $0x3EC71DE3567D48A1 // _sin[2]
DATA bmc<>+200(SB)/8, $0xBF2A01A019BFDF03 // _sin[3]
DATA bmc<>+208(SB)/8, $0x3F8111111110F7D0 // _sin[4]
DATA bmc<>+216(SB)/8, $0xBFC5555555555548 // _sin[5]
DATA bmc<>+224(SB)/8, $0xBDA8FA49A0861A9B // _cos[0]
DATA bmc<>+232(SB)/8, $0x3E21EE9D7B4E3F05 // _cos[1]
DATA bmc<>+240(SB)/8, $0xBE927E4F7EAC4BC6 // _cos[2]
DATA bmc<>+248(SB)/8, $0x3EFA01A019C844F5 // _cos[3]
DATA bmc<>+256(SB)/8, $0xBF56C16C16C14F91 // _cos[4]
DATA bmc<>+264(SB)/8, $0x3FA555555555554B // _cos[5]
DATA bmc<>+272(SB)/8, $1                  // integer 1
DATA bmc<>+280(SB)/8, $2                  // integer 2
DATA bmc<>+288(SB)/8, $0x8000000000000000 // sign bit
GLOBL bmc<>(SB), RODATA|NOPTR, $296

#define kMANT bmc<>+0(SB)
#define kHALF bmc<>+8(SB)
#define kEXP bmc<>+16(SB)
#define kBIAS bmc<>+24(SB)
#define kHSQRT2 bmc<>+32(SB)
#define kONE bmc<>+40(SB)
#define kTWO bmc<>+48(SB)
#define kL1 bmc<>+56(SB)
#define kL2 bmc<>+64(SB)
#define kL3 bmc<>+72(SB)
#define kL4 bmc<>+80(SB)
#define kL5 bmc<>+88(SB)
#define kL6 bmc<>+96(SB)
#define kL7 bmc<>+104(SB)
#define kLN2HI bmc<>+112(SB)
#define kLN2LO bmc<>+120(SB)
#define kMINUS2 bmc<>+128(SB)
#define kTWOPI bmc<>+136(SB)
#define kFOURPI bmc<>+144(SB)
#define kPI4A bmc<>+152(SB)
#define kPI4B bmc<>+160(SB)
#define kPI4C bmc<>+168(SB)
#define kSIN0 bmc<>+176(SB)
#define kSIN1 bmc<>+184(SB)
#define kSIN2 bmc<>+192(SB)
#define kSIN3 bmc<>+200(SB)
#define kSIN4 bmc<>+208(SB)
#define kSIN5 bmc<>+216(SB)
#define kCOS0 bmc<>+224(SB)
#define kCOS1 bmc<>+232(SB)
#define kCOS2 bmc<>+240(SB)
#define kCOS3 bmc<>+248(SB)
#define kCOS4 bmc<>+256(SB)
#define kCOS5 bmc<>+264(SB)
#define kINT1 bmc<>+272(SB)
#define kINT2 bmc<>+280(SB)
#define kSIGN bmc<>+288(SB)

// bmPerm interleaves two 8-lane float32 vectors c and s (table indices
// 0-7 and 16-23) into c0 s0 c1 s1 … c7 s7, the order the scalar path
// hands the values out.
DATA bmPerm<>+0(SB)/8, $0x0000001000000000
DATA bmPerm<>+8(SB)/8, $0x0000001100000001
DATA bmPerm<>+16(SB)/8, $0x0000001200000002
DATA bmPerm<>+24(SB)/8, $0x0000001300000003
DATA bmPerm<>+32(SB)/8, $0x0000001400000004
DATA bmPerm<>+40(SB)/8, $0x0000001500000005
DATA bmPerm<>+48(SB)/8, $0x0000001600000006
DATA bmPerm<>+56(SB)/8, $0x0000001700000007
GLOBL bmPerm<>(SB), RODATA|NOPTR, $64

// BMSETUP loads the constants the transform needs as whole operands
// rather than broadcast sources: Z30 = HSqrt2 (the compare's first
// operand) and Z31 = 1.0 (the minuend of 1 − 0.5·zz).
#define BMSETUP \
	VBROADCASTSD kHSQRT2, Z30; \
	VBROADCASTSD kONE, Z31

// LOG8 computes Z3 = archLog(Z0) on 8 lanes, instruction for instruction
// after log_amd64.s (commutative operands may sit in either order). Uses
// Z2, Z5-Z8 and K1; leaves f in Z2.
#define LOG8 \
	VPANDQ.BCST  kMANT, Z0, Z2;      \ // f1, ki := Frexp(x)
	VPORQ.BCST   kHALF, Z2, Z2;      \
	VPSRLQ       $52, Z0, Z3;        \
	VPANDQ.BCST  kEXP, Z3, Z3;       \
	VPSUBQ.BCST  kBIAS, Z3, Z3;      \
	VPMOVQD      Z3, Y3;             \
	VCVTDQ2PD    Y3, Z3;             \ // k = float64(ki)
	VCMPPD       $5, Z2, Z30, K1;    \ // K1 = !(HSqrt2 < f1), CMPSD's predicate 5
	VSUBPD.BCST  kONE, Z3, K1, Z3;   \ // k -= 1
	VMULPD.BCST  kTWO, Z2, K1, Z2;   \ // f1 *= 2
	VSUBPD.BCST  kONE, Z2, Z2;       \ // f = f1 - 1
	VADDPD.BCST  kTWO, Z2, Z5;       \
	VDIVPD       Z5, Z2, Z5;         \ // s = f / (2 + f)
	VMULPD       Z5, Z5, Z6;         \ // s2 = s * s
	VMULPD       Z6, Z6, Z7;         \ // s4 = s2 * s2
	VMULPD.BCST  kL7, Z7, Z8;        \ // t1 = s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VADDPD.BCST  kL5, Z8, Z8;        \
	VMULPD       Z7, Z8, Z8;         \
	VADDPD.BCST  kL3, Z8, Z8;        \
	VMULPD       Z7, Z8, Z8;         \
	VADDPD.BCST  kL1, Z8, Z8;        \
	VMULPD       Z8, Z6, Z6;         \
	VMULPD.BCST  kL6, Z7, Z8;        \ // t2 = s4 * (L2 + s4*(L4+s4*L6))
	VADDPD.BCST  kL4, Z8, Z8;        \
	VMULPD       Z7, Z8, Z8;         \
	VADDPD.BCST  kL2, Z8, Z8;        \
	VMULPD       Z8, Z7, Z7;         \
	VADDPD       Z7, Z6, Z6;         \ // R = t1 + t2
	VMULPD.BCST  kHALF, Z2, Z8;      \ // hfsq = 0.5 * f * f
	VMULPD       Z2, Z8, Z8;         \
	VADDPD       Z8, Z6, Z6;         \ // k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VMULPD       Z6, Z5, Z5;         \
	VMULPD.BCST  kLN2LO, Z3, Z7;     \
	VADDPD       Z7, Z5, Z5;         \
	VSUBPD       Z5, Z8, Z8;         \
	VSUBPD       Z2, Z8, Z8;         \
	VMULPD.BCST  kLN2HI, Z3, Z3;     \
	VSUBPD       Z8, Z3, Z3

// SINCOS8 computes Z16 = sin(Z1), Z17 = cos(Z1) on 8 lanes after
// math.Sincos for 0 <= x < reduceThreshold. The octant j is even after
// "map zeros to origin" (j = 0, 2, 4, 6 or 8, and 8&7 = 0), so the
// reflections reduce to bits of j: swap sin/cos when bit 1 is set, negate
// sin when bit 2 is set, negate cos when bits 1 and 2 differ. Uses Z9-Z19
// and K2.
#define SINCOS8 \
	VMULPD.BCST  kFOURPI, Z1, Z9;    \ // j = uint64(x * (4 / Pi))
	VCVTTPD2DQ   Z9, Y9;             \
	VPMOVZXDQ    Y9, Z9;             \
	VPANDQ.BCST  kINT1, Z9, Z10;     \ // if j&1 == 1 { j++; y++ }
	VPADDQ       Z10, Z9, Z9;        \
	VPMOVQD      Z9, Y10;            \
	VCVTDQ2PD    Y10, Z10;           \ // y = float64(j)
	VMULPD.BCST  kPI4A, Z10, Z11;    \ // z = ((x - y*PI4A) - y*PI4B) - y*PI4C
	VSUBPD       Z11, Z1, Z12;       \
	VMULPD.BCST  kPI4B, Z10, Z11;    \
	VSUBPD       Z11, Z12, Z12;      \
	VMULPD.BCST  kPI4C, Z10, Z11;    \
	VSUBPD       Z11, Z12, Z12;      \
	VMULPD       Z12, Z12, Z13;      \ // zz = z * z
	VMULPD.BCST  kCOS0, Z13, Z14;    \ // cos = 1.0 - 0.5*zz + zz*zz*((((((_cos[0]*zz)+_cos[1])*zz+…)
	VADDPD.BCST  kCOS1, Z14, Z14;    \
	VMULPD       Z13, Z14, Z14;      \
	VADDPD.BCST  kCOS2, Z14, Z14;    \
	VMULPD       Z13, Z14, Z14;      \
	VADDPD.BCST  kCOS3, Z14, Z14;    \
	VMULPD       Z13, Z14, Z14;      \
	VADDPD.BCST  kCOS4, Z14, Z14;    \
	VMULPD       Z13, Z14, Z14;      \
	VADDPD.BCST  kCOS5, Z14, Z14;    \
	VMULPD       Z13, Z13, Z15;      \
	VMULPD       Z14, Z15, Z14;      \
	VMULPD.BCST  kHALF, Z13, Z15;    \
	VSUBPD       Z15, Z31, Z15;      \
	VADDPD       Z14, Z15, Z14;      \
	VMULPD.BCST  kSIN0, Z13, Z15;    \ // sin = z + z*zz*((((((_sin[0]*zz)+_sin[1])*zz+…)
	VADDPD.BCST  kSIN1, Z15, Z15;    \
	VMULPD       Z13, Z15, Z15;      \
	VADDPD.BCST  kSIN2, Z15, Z15;    \
	VMULPD       Z13, Z15, Z15;      \
	VADDPD.BCST  kSIN3, Z15, Z15;    \
	VMULPD       Z13, Z15, Z15;      \
	VADDPD.BCST  kSIN4, Z15, Z15;    \
	VMULPD       Z13, Z15, Z15;      \
	VADDPD.BCST  kSIN5, Z15, Z15;    \
	VMULPD       Z13, Z12, Z16;      \
	VMULPD       Z15, Z16, Z15;      \
	VADDPD       Z15, Z12, Z15;      \
	VPTESTMQ.BCST kINT2, Z9, K2;     \ // if j == 1 || j == 2 { sin, cos = cos, sin }
	VBLENDMPD    Z14, Z15, K2, Z16;  \
	VBLENDMPD    Z15, Z14, K2, Z17;  \
	VPSLLQ       $61, Z9, Z18;       \ // sinSign = bit 2 of j
	VPSLLQ       $62, Z9, Z19;       \
	VPXORQ       Z18, Z19, Z19;      \ // cosSign = bit 1 ^ bit 2
	VPANDQ.BCST  kSIGN, Z18, Z18;    \
	VPANDQ.BCST  kSIGN, Z19, Z19;    \
	VPXORQ       Z18, Z16, Z16;      \
	VPXORQ       Z19, Z17, Z17

// BM8 is the Box-Muller transform of 8 pairs: u in Z0, v in Z1 in; the
// float64 c = mag·cos in Z4 and s = mag·sin in Z5 out.
#define BM8 \
	LOG8;                            \
	VMULPD.BCST  kMINUS2, Z3, Z3;    \ // mag = Sqrt(-2 * Log(u))
	VSQRTPD      Z3, Z3;             \
	VMULPD.BCST  kTWOPI, Z1, Z1;     \ // x = 2 * Pi * v
	SINCOS8;                         \
	VMULPD       Z17, Z3, Z4;        \
	VMULPD       Z16, Z3, Z5

// func boxMullerAddAVX512(dst *float32, u, v *float64, n int, sigma float32)
//
// dst[2i] += sigma·float32(c_i), dst[2i+1] += sigma·float32(s_i) for the
// n pairs (u[i], v[i]); n must be a multiple of 8.
TEXT ·boxMullerAddAVX512(SB), NOSPLIT, $0-36
	MOVQ         dst+0(FP), DI
	MOVQ         u+8(FP), SI
	MOVQ         v+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSS sigma+32(FP), Z29
	VMOVDQU32    bmPerm<>(SB), Z28
	BMSETUP
	TESTQ        CX, CX
	JLE          addDone

addLoop:
	VMOVUPD   (SI), Z0
	VMOVUPD   (DX), Z1
	BM8
	VCVTPD2PS Z4, Y4
	VCVTPD2PS Z5, Y5
	VPERMT2PS Z5, Z28, Z4 // c0 s0 c1 s1 …
	VMULPS    Z29, Z4, Z4
	VADDPS    (DI), Z4, Z4
	VMOVUPS   Z4, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DX
	ADDQ      $64, DI
	SUBQ      $8, CX
	JG        addLoop

addDone:
	VZEROUPPER
	RET

// func boxMullerPairsAVX512(c, s, u, v *float64, n int)
//
// The transform alone, c[i], s[i] = boxMuller(u[i], v[i]) in float64, so
// tests can check every bit before the float32 rounding; n must be a
// multiple of 8.
TEXT ·boxMullerPairsAVX512(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), DI
	MOVQ s+8(FP), BX
	MOVQ u+16(FP), SI
	MOVQ v+24(FP), DX
	MOVQ n+32(FP), CX
	BMSETUP
	TESTQ CX, CX
	JLE   pairsDone

pairsLoop:
	VMOVUPD (SI), Z0
	VMOVUPD (DX), Z1
	BM8
	VMOVUPD Z4, (DI)
	VMOVUPD Z5, (BX)
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $64, DI
	ADDQ    $64, BX
	SUBQ    $8, CX
	JG      pairsLoop

pairsDone:
	VZEROUPPER
	RET
