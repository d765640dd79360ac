package rng

import "math"

// bmLevel names one rung of the Box-Muller kernel ladder behind the v1
// batched fills. Every rung computes bit-identical values; a higher rung
// only transforms more pairs per instruction.
type bmLevel int

const (
	bmGo     bmLevel = iota // scalar Go, one normPair per pair
	bmAVX512                // 8 pairs per step, ZMM (AVX-512F)
)

func (l bmLevel) String() string {
	switch l {
	case bmGo:
		return "go"
	case bmAVX512:
		return "avx512"
	}
	return "unknown"
}

// bmKernel is the rung FillNormalAdd runs. It is fixed at init to the best
// rung the host supports (hostBMLevel); tests may lower it to check a lower
// rung against the reference.
var bmKernel = hostBMLevel

// boxMuller is the v1 Box-Muller transform of one uniform pair, u in (0, 1)
// and v in [0, 1): the (cos, sin) pair in the order NormFloat64 hands the
// values out. It is the one Go definition of the transform; the SIMD
// kernel replays its amd64 operation order lane by lane.
func boxMuller(u, v float64) (c, s float64) {
	mag := math.Sqrt(-2 * math.Log(u))
	// math.Sincos shares one argument reduction between the two
	// evaluations; its results are bit-identical to separate
	// math.Sin/math.Cos calls (asserted by TestSincosBitIdentical), so the
	// historical draw values are preserved exactly.
	sin, cos := math.Sincos(2 * math.Pi * v)
	return mag * cos, mag * sin
}

// pairChunk is how many uniform pairs the kernel path draws ahead into its
// stack arrays per round.
const pairChunk = 64

// addNormalGroups adds sigma-scaled normals to the longest prefix of dst
// made of whole 8-pair groups and returns its length. It draws each chunk's
// uniforms first, in exactly normPair's order, then transforms them on the
// kernel rung, so the stream advances just as per-pair normPair calls
// would.
func (r *Rand) addNormalGroups(dst []float32, sigma float32) int {
	n := len(dst) / 16 * 16
	if n == 0 {
		return 0 // short fills skip zeroing the stack arrays
	}
	var u, v [pairChunk]float64
	for i := 0; i < n; {
		m := min((n-i)/2, pairChunk)
		for p := 0; p < m; p++ {
			u[p] = r.uniformOpen()
			v[p] = r.Float64()
		}
		boxMullerAdd(dst[i:i+2*m], u[:m], v[:m], sigma)
		i += 2 * m
	}
	return n
}
