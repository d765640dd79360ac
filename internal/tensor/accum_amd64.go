//go:build amd64

package tensor

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

// cpuid executes CPUID for the given leaf (EAX) and sub-leaf (ECX).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the register-state set the OS saves on a context
// switch. Valid only when CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// hostAccumLevel is the widest kernel this CPU and OS both support.
var hostAccumLevel = detectAccumLevel()

// detectAccumLevel picks the kernel rung: a wide kernel needs the CPU to
// implement it and the OS to save its registers (XCR0), or a context switch
// would corrupt the upper lanes. SSE2 is part of the amd64 baseline.
func detectAccumLevel() accumLevel {
	const (
		osxsave  = 1 << 27                       // CPUID.1:ECX
		avx      = 1 << 28                       // CPUID.1:ECX
		avx512f  = 1 << 16                       // CPUID.(7,0):EBX
		ymmState = 1<<1 | 1<<2                   // XCR0: SSE, AVX
		zmmState = ymmState | 1<<5 | 1<<6 | 1<<7 // XCR0: + opmask, ZMM_Hi256, Hi16_ZMM
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return accumSSE2
	}
	xcr0, _ := xgetbv()
	if xcr0&ymmState != ymmState {
		return accumSSE2
	}
	if maxLeaf >= 7 {
		_, ebx7, _, _ := cpuid(7, 0)
		if ebx7&avx512f != 0 && xcr0&zmmState == zmmState {
			return accumAVX512
		}
	}
	return accumAVX
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
