//go:build amd64

package tensor

import "nora/internal/cpu"

// The SIMD rungs of accumQuad, 16 (AVX-512F), 8 (AVX) or 4 (SSE2) lanes
// per step; each is bit-identical to accumQuadGo (accum_amd64.s states the
// contract).
//
//go:noescape
func accumQuadAVX512(dst, r0, r1, r2, r3 *float32, n int, x0, x1, x2, x3 float32)

//go:noescape
func accumQuadAVX(dst, r0, r1, r2, r3 *float32, n int, x0, x1, x2, x3 float32)

//go:noescape
func accumQuadSSE2(dst, r0, r1, r2, r3 *float32, n int, x0, x1, x2, x3 float32)

// accumStridedAVX512 is AccumStrided's AVX-512F rung for n > 0 destination
// elements and k > 0 b-rows stride elements apart; bit-identical to
// accumStridedGo (accum_amd64.s states the contract).
//
//go:noescape
func accumStridedAVX512(dst, x, b *float32, n, k, stride int)

// hostAccumLevel is the widest kernel this CPU and OS both support (see
// package cpu). SSE2 is part of the amd64 baseline.
var hostAccumLevel = detectAccumLevel()

func detectAccumLevel() accumLevel {
	switch {
	case cpu.AVX512F:
		return accumAVX512
	case cpu.AVX:
		return accumAVX
	}
	return accumSSE2
}

// accumQuad folds four b-rows into dst with one load/store of dst per
// element group, on the kernel rung chosen at init (see accumQuadGo for the
// portable definition).
func accumQuad(dst, r0, r1, r2, r3 []float32, x0, x1, x2, x3 float32) {
	n := len(dst)
	if n == 0 {
		return
	}
	switch accumKernel {
	case accumAVX512:
		accumQuadAVX512(&dst[0], &r0[0], &r1[0], &r2[0], &r3[0], n, x0, x1, x2, x3)
	case accumAVX:
		accumQuadAVX(&dst[0], &r0[0], &r1[0], &r2[0], &r3[0], n, x0, x1, x2, x3)
	case accumSSE2:
		accumQuadSSE2(&dst[0], &r0[0], &r1[0], &r2[0], &r3[0], n, x0, x1, x2, x3)
	default:
		accumQuadGo(dst, r0, r1, r2, r3, x0, x1, x2, x3)
	}
}

// accumStrided is AccumStrided's kernel: the register-resident AVX-512F
// rung when accumKernel selects it, otherwise quads of b-rows through the
// accumQuad ladder (accumStridedGo).
func accumStrided(dst, x, b []float32, stride int) {
	if accumKernel == accumAVX512 {
		accumStridedAVX512(&dst[0], &x[0], &b[0], len(dst), len(x), stride)
		return
	}
	accumStridedGo(dst, x, b, stride)
}
