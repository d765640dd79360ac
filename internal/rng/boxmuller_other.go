//go:build !amd64

package rng

// hostBMLevel is the scalar path off amd64: no Box-Muller kernel exists for
// other architectures.
const hostBMLevel = bmGo

// boxMullerAdd is never reached off amd64 (bmKernel is always bmGo).
func boxMullerAdd(dst []float32, u, v []float64, sigma float32) {
	panic("rng: no Box-Muller kernel on this architecture")
}
