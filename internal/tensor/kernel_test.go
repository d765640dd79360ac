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
// take that path.
func TestAccumKernelsHaveNoFMA(t *testing.T) {
	src, err := os.ReadFile("accum_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	if m := regexp.MustCompile(`(?i)\bVF(N?MADD|N?MSUB)\w*`).Find(src); m != nil {
		t.Fatalf("accum_amd64.s uses the fused multiply-add %s", m)
	}
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
