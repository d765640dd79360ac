//go:build amd64

package rng

import "nora/internal/cpu"

// boxMullerAddAVX512 is the AVX-512F rung of boxMullerAdd; n is the pair
// count, a positive multiple of 8 (boxmuller_amd64.s states the contract).
//
//go:noescape
func boxMullerAddAVX512(dst *float32, u, v *float64, n int, sigma float32)

// boxMullerPairsAVX512 is the kernel's transform alone, float64 out, for
// the tests that check every bit before the float32 rounding.
//
//go:noescape
func boxMullerPairsAVX512(c, s, u, v *float64, n int)

// hostBMLevel is the widest Box-Muller kernel this CPU and OS support.
var hostBMLevel = func() bmLevel {
	if cpu.AVX512F {
		return bmAVX512
	}
	return bmGo
}()

// boxMullerAdd adds sigma-scaled Box-Muller pairs of the uniforms u, v to
// dst in c, s order: dst[2i] += sigma·float32(c_i), dst[2i+1] +=
// sigma·float32(s_i). len(u) must be a positive multiple of 8.
func boxMullerAdd(dst []float32, u, v []float64, sigma float32) {
	_ = dst[2*len(u)-1] // the kernel writes 2·len(u) values and reads len(u) of v
	_ = v[len(u)-1]
	boxMullerAddAVX512(&dst[0], &u[0], &v[0], len(u), sigma)
}
