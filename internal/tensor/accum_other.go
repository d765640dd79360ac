//go:build !amd64

package tensor

// hostAccumLevel is the portable twin off amd64: no SIMD kernel exists for
// other architectures.
const hostAccumLevel = accumGo

// accumQuad folds four b-rows into dst (see accumQuadGo).
func accumQuad(dst, r0, r1, r2, r3 []float32, x0, x1, x2, x3 float32) {
	accumQuadGo(dst, r0, r1, r2, r3, x0, x1, x2, x3)
}

// accumStrided is AccumStrided's kernel (see accumStridedGo).
func accumStrided(dst, x, b []float32, stride int) {
	accumStridedGo(dst, x, b, stride)
}
