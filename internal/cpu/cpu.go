// Package cpu probes the host's SIMD features once at init, for the
// packages that pick a hand-written kernel by CPU (the matmul accumulation
// ladder in tensor, the Box-Muller noise kernel in rng). There is no flag
// to override the probe: every kernel is bit-identical to its portable Go
// twin, so the choice changes speed only.
package cpu

// Features reported by the probe. Each is true only when the CPU
// implements the instruction set and the OS saves its registers on a
// context switch; off amd64 both are false.
var (
	// AVX: CPUID.1:ECX.AVX, OSXSAVE, and XCR0 saves the SSE and AVX state.
	AVX bool
	// AVX512F: AVX, CPUID.(7,0):EBX.AVX512F, and XCR0 also saves the
	// opmask, ZMM_Hi256 and Hi16_ZMM state.
	AVX512F bool
)
