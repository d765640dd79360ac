//go:build amd64

package cpu

// cpuid executes CPUID for the given leaf (EAX) and sub-leaf (ECX).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the register-state set the OS saves on a context
// switch. Valid only when CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

func init() { AVX, AVX512F = detect() }

// detect reports the wide vector sets this CPU and OS both support: a wide
// kernel needs the CPU to implement it and the OS to save its registers
// (XCR0), or a context switch would corrupt the upper lanes. SSE2 is part
// of the amd64 baseline and needs no probe.
func detect() (avx, avx512f bool) {
	const (
		osxsave    = 1 << 27                       // CPUID.1:ECX
		avxBit     = 1 << 28                       // CPUID.1:ECX
		avx512fBit = 1 << 16                       // CPUID.(7,0):EBX
		ymmState   = 1<<1 | 1<<2                   // XCR0: SSE, AVX
		zmmState   = ymmState | 1<<5 | 1<<6 | 1<<7 // XCR0: + opmask, ZMM_Hi256, Hi16_ZMM
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsave == 0 || ecx1&avxBit == 0 {
		return false, false
	}
	xcr0, _ := xgetbv()
	if xcr0&ymmState != ymmState {
		return false, false
	}
	if maxLeaf >= 7 {
		_, ebx7, _, _ := cpuid(7, 0)
		if ebx7&avx512fBit != 0 && xcr0&zmmState == zmmState {
			return true, true
		}
	}
	return true, false
}
