package tensor

// accumLevel names one rung of the accumulation-kernel ladder behind
// accumQuad. Every rung computes bit-identical results; a higher rung only
// processes more lanes per instruction.
type accumLevel int

const (
	accumGo     accumLevel = iota // portable Go twin (accumQuadGo)
	accumSSE2                     // 4 lanes, XMM
	accumAVX                      // 8 lanes, YMM
	accumAVX512                   // 16 lanes, ZMM (AVX-512F)
)

func (l accumLevel) String() string {
	switch l {
	case accumGo:
		return "go"
	case accumSSE2:
		return "sse2"
	case accumAVX:
		return "avx"
	case accumAVX512:
		return "avx512"
	}
	return "unknown"
}

// accumKernel is the rung accumQuad runs. It is fixed at init to the best
// rung the host supports (hostAccumLevel); tests may lower it to check a
// lower rung against the reference.
var accumKernel = hostAccumLevel

// accumQuadGo folds four b-rows into dst: each dst element accumulates its
// four addends in strictly increasing k order with one load/store of dst
// per group — the portable twin of the SIMD kernels in accum_amd64.s. The
// explicit float32 conversion rounds every product before it is added, so
// no architecture may fuse the multiply-add (Go spec, "Arithmetic
// operators"): each step rounds twice, exactly like MULPS then ADDPS.
func accumQuadGo(dst, r0, r1, r2, r3 []float32, x0, x1, x2, x3 float32) {
	r0 = r0[:len(dst)]
	r1 = r1[:len(dst)]
	r2 = r2[:len(dst)]
	r3 = r3[:len(dst)]
	for j, d := range dst {
		d += float32(x0 * r0[j])
		d += float32(x1 * r1[j])
		d += float32(x2 * r2[j])
		d += float32(x3 * r3[j])
		dst[j] = d
	}
}

// accumStridedGo is AccumStrided's portable rung: groups of four b-rows
// through the accumQuad ladder, then the scalar k-tail, each dst element
// receiving its addends in strictly increasing k order.
func accumStridedGo(dst, x, b []float32, stride int) {
	n := len(dst)
	k := 0
	for ; k+3 < len(x); k += 4 {
		o := k * stride
		accumQuad(dst,
			b[o:o+n],
			b[o+stride:o+stride+n],
			b[o+2*stride:o+2*stride+n],
			b[o+3*stride:o+3*stride+n],
			x[k], x[k+1], x[k+2], x[k+3])
	}
	for ; k < len(x); k++ {
		xv := x[k]
		row := b[k*stride:][:n]
		for j, rv := range row {
			dst[j] += float32(xv * rv) // unfused, like accumQuad
		}
	}
}
