package tensor

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"testing"

	"nora/internal/rng"
)

// useAccumKernel runs the rest of the test on kernel rung l, restoring the
// host rung afterwards, and skips when this CPU lacks l.
func useAccumKernel(tb testing.TB, l accumLevel) {
	tb.Helper()
	if l > hostAccumLevel {
		tb.Skipf("host lacks the %s accumulation kernel (best rung: %s)", l, hostAccumLevel)
	}
	prev := accumKernel
	accumKernel = l
	tb.Cleanup(func() { accumKernel = prev })
}

// kernelInputs are the value regimes every rung must round identically:
// each fills a rows×cols matrix.
var kernelInputs = []struct {
	name string
	fill func(r *rng.Rand, m *Matrix, isA bool)
}{
	{"dense", func(r *rng.Rand, m *Matrix, _ bool) { r.FillNormal(m.Data, 0, 1) }},
	{"sparse", func(r *rng.Rand, m *Matrix, _ bool) {
		r.FillNormal(m.Data, 0, 1)
		for i := range m.Data {
			if r.Float32() < 0.6 {
				m.Data[i] = 0
			}
		}
	}},
	{"signed-zero", func(r *rng.Rand, m *Matrix, _ bool) {
		r.FillNormal(m.Data, 0, 1)
		negZero := float32(math.Copysign(0, -1))
		for i := range m.Data {
			switch u := r.Float32(); {
			case u < 0.3:
				m.Data[i] = 0
			case u < 0.6:
				m.Data[i] = negZero
			}
		}
	}},
	// Subnormal activations times O(1) weights: products and partial sums
	// straddle the normal/subnormal boundary (no flush-to-zero anywhere).
	{"subnormal", func(r *rng.Rand, m *Matrix, isA bool) {
		r.FillNormal(m.Data, 0, 1)
		if isA {
			for i := range m.Data {
				m.Data[i] *= 1e-39
			}
		}
	}},
	// Products near MaxFloat32: a mix of finite sums, ±Inf overflows and
	// Inf−Inf NaNs.
	{"large", func(r *rng.Rand, m *Matrix, _ bool) {
		r.FillNormal(m.Data, 0, 1)
		for i := range m.Data {
			m.Data[i] *= 8e18
		}
	}},
}

// TestAccumKernelLadderBitExact runs every kernel rung the host supports,
// plus the portable twin, under MatMulSerialInto, MatMulInto and
// VecMulInto, and requires every output bit to equal the scalar k-order
// reference. The widths cover each rung's 16/8/4/scalar tails; K=37 spans
// several quads, a scalar k-tail and (for wide rows) two k-panels.
func TestAccumKernelLadderBitExact(t *testing.T) {
	type kcase struct {
		name    string
		a, b, w *Matrix
	}
	var cases []kcase
	r := rng.New(53)
	var widths []int
	for n := 1; n <= 40; n++ {
		widths = append(widths, n)
	}
	widths = append(widths, 63, 64, 65, 256, 1024)
	for _, n := range widths {
		for _, rows := range []int{1, 3, 4, 5, 16, 68} {
			for _, k := range []int{4, 37} {
				for _, in := range kernelInputs {
					a, b := New(rows, k), New(k, n)
					in.fill(r, a, true)
					in.fill(r, b, false)
					cases = append(cases, kcase{fmt.Sprintf("%s %dx%dx%d", in.name, rows, k, n), a, b, seqMatMul(a, b)})
				}
			}
		}
	}
	for l := accumGo; l <= accumAVX512; l++ {
		t.Run(l.String(), func(t *testing.T) {
			useAccumKernel(t, l)
			for _, c := range cases {
				out := New(c.w.Rows, c.w.Cols)
				out.Fill(1) // junk: every path must fully overwrite
				MatMulSerialInto(out, c.a, c.b)
				bitsEqual(t, "MatMulSerialInto "+c.name, out, c.w)
				out.Fill(1)
				MatMulInto(out, c.a, c.b)
				bitsEqual(t, "MatMulInto "+c.name, out, c.w)
				out.Fill(1)
				for i := 0; i < c.a.Rows; i++ {
					VecMulInto(out.Row(i), c.a.Row(i), c.b)
				}
				bitsEqual(t, "VecMulInto "+c.name, out, c.w)
			}
		})
	}
}

// TestAccumKernelsHaveNoFMA guards the kernels' rounding contract: a fused
// multiply-add rounds once where MULPS+ADDPS round twice, so a single FMA
// mnemonic in the kernel source would break bit-exactness on the hosts that
// take that path. The file must hold every kernel, the strided one included,
// so none can move out from under the guard.
func TestAccumKernelsHaveNoFMA(t *testing.T) {
	src, err := os.ReadFile("accum_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []string{"accumQuadAVX512", "accumQuadAVX", "accumQuadSSE2", "accumStridedAVX512"} {
		if !regexp.MustCompile(`TEXT ·` + fn + `\(SB\)`).Match(src) {
			t.Errorf("accum_amd64.s does not define %s", fn)
		}
	}
	if m := regexp.MustCompile(`(?i)\bVF(N?MADD|N?MSUB)\w*`).Find(src); m != nil {
		t.Fatalf("accum_amd64.s uses the fused multiply-add %s", m)
	}
}

// refAccumStrided is AccumStrided's scalar definition: per destination
// element, every addend in increasing k order, each product rounded.
func refAccumStrided(dst, x, b []float32, stride int) {
	for j := range dst {
		d := dst[j]
		for k, xv := range x {
			d += float32(xv * b[k*stride+j])
		}
		dst[j] = d
	}
}

// fillStrided fills v with normals salted with +0, −0 and subnormals.
func fillStrided(r *rng.Rand, v []float32) {
	r.FillNormal(v, 0, 1)
	negZero := float32(math.Copysign(0, -1))
	for i := range v {
		switch u := r.Float32(); {
		case u < 0.1:
			v[i] = 0
		case u < 0.2:
			v[i] = negZero
		case u < 0.35:
			v[i] *= 1e-39
		}
	}
}

// TestAccumStridedLadderBitExact runs AccumStrided on every kernel rung
// the host supports against the scalar reference with Float32bits
// equality. The sizes cover the AVX-512 rung's four-group blocks, single
// groups and masked partial groups, and the quad ladder's k-tails; strides
// shorter than n make the b-rows overlap. The elements just past len(dst)
// hold sentinels no rung may write.
func TestAccumStridedLadderBitExact(t *testing.T) {
	const guard = 17 // a full masked group past the end, plus one
	var ns []int
	for n := 0; n <= 17; n++ {
		ns = append(ns, n)
	}
	ns = append(ns, 31, 32, 33, 64)
	sentinel := math.Float32frombits(0x7fc0dead)
	for l := accumGo; l <= accumAVX512; l++ {
		t.Run(l.String(), func(t *testing.T) {
			useAccumKernel(t, l)
			r := rng.New(61)
			for _, k := range []int{0, 1, 3, 4, 5, 63, 64, 65} {
				for _, n := range ns {
					for _, stride := range []int{n, n + 3, 16, 256} {
						blen := 0
						if k > 0 {
							blen = (k-1)*stride + n
						}
						x, b := make([]float32, k), make([]float32, blen)
						fillStrided(r, x)
						fillStrided(r, b)
						buf := make([]float32, n+guard)
						fillStrided(r, buf[:n])
						for j := n; j < len(buf); j++ {
							buf[j] = sentinel
						}
						want := append([]float32(nil), buf[:n]...)
						refAccumStrided(want, x, b, stride)
						AccumStrided(buf[:n], x, b, stride)
						for j := 0; j < n; j++ {
							if math.Float32bits(buf[j]) != math.Float32bits(want[j]) {
								t.Fatalf("k=%d n=%d stride=%d: dst[%d] = %v (%#x), want %v (%#x)",
									k, n, stride, j, buf[j], math.Float32bits(buf[j]), want[j], math.Float32bits(want[j]))
							}
						}
						for j := n; j < len(buf); j++ {
							if math.Float32bits(buf[j]) != math.Float32bits(sentinel) {
								t.Fatalf("k=%d n=%d stride=%d: wrote dst[%d] past len(dst)", k, n, stride, j)
							}
						}
					}
				}
			}
		})
	}
}

// TestAccumStridedPanicsOnShortB checks the bounds guard in front of the
// unchecked kernels.
func TestAccumStridedPanicsOnShortB(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AccumStrided accepted a b one element short")
		}
	}()
	AccumStrided(make([]float32, 4), make([]float32, 3), make([]float32, 2*8+3), 8)
}

// BenchmarkMACKernel times the blocked MAC on each kernel rung at the
// shapes the chat workload serves (T×K×N: T rows through a K×N tile),
// reporting achieved GFLOP/s.
func BenchmarkMACKernel(b *testing.B) {
	for l := accumGo; l <= accumAVX512; l++ {
		for _, sh := range [][3]int{{68, 256, 1024}, {68, 256, 256}, {16, 64, 64}} {
			rows, k, n := sh[0], sh[1], sh[2]
			b.Run(fmt.Sprintf("%s/%dx%dx%d", l, rows, k, n), func(b *testing.B) {
				useAccumKernel(b, l)
				r := rng.New(59)
				a, w, out := randMatrix(r, rows, k), randMatrix(r, k, n), New(rows, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					MatMulSerialInto(out, a, w)
				}
				b.ReportMetric(2*float64(rows*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

// BenchmarkAccumStrided times AccumStrided on each kernel rung at the
// cached-attention shapes of the chat workload (head dim 64, 16-token KV
// pages, KV width 256): one head's QKᵀ over a page segment and its PV over
// the same segment.
func BenchmarkAccumStrided(b *testing.B) {
	shapes := []struct {
		name         string
		k, n, stride int
	}{
		{"qk/k=64_n=16_stride=16", 64, 16, 16},
		{"pv/k=16_n=64_stride=256", 16, 64, 256},
	}
	for l := accumGo; l <= accumAVX512; l++ {
		for _, sh := range shapes {
			b.Run(fmt.Sprintf("%s/%s", l, sh.name), func(b *testing.B) {
				useAccumKernel(b, l)
				r := rng.New(67)
				x, w := make([]float32, sh.k), make([]float32, (sh.k-1)*sh.stride+sh.n)
				dst := make([]float32, sh.n)
				r.FillNormal(x, 0, 1)
				r.FillNormal(w, 0, 1)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					AccumStrided(dst, x, w, sh.stride)
				}
				b.ReportMetric(2*float64(sh.k*sh.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
