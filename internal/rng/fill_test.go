package rng

import (
	"fmt"
	"math"
	"testing"
)

// TestSincosBitIdentical backs the claim in normPair that switching from
// separate math.Sin/math.Cos calls to one math.Sincos call preserves every
// historical draw value bit-for-bit. It sweeps the exact Box-Muller domain
// (x = 2π·v with v a Float64 lattice point in [0,1)) plus dense
// neighborhoods of the argument-reduction boundaries k·π/4, where the two
// implementations would diverge first if they ever did.
func TestSincosBitIdentical(t *testing.T) {
	check := func(x float64) {
		s, c := math.Sincos(x)
		if math.Float64bits(s) != math.Float64bits(math.Sin(x)) ||
			math.Float64bits(c) != math.Float64bits(math.Cos(x)) {
			t.Fatalf("Sincos(%v) = (%v, %v), Sin/Cos = (%v, %v)",
				x, s, c, math.Sin(x), math.Cos(x))
		}
	}
	r := New(0xB0C5)
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	for i := 0; i < n; i++ {
		check(2 * math.Pi * r.Float64())
	}
	for k := 0; k <= 8; k++ {
		x := float64(k) * math.Pi / 4
		lo, hi := x, x
		for i := 0; i < 500; i++ {
			lo = math.Nextafter(lo, math.Inf(-1))
			hi = math.Nextafter(hi, math.Inf(1))
			if lo >= 0 {
				check(lo)
			}
			check(hi)
		}
	}
}

// useBMKernel runs the rest of the test on Box-Muller kernel rung l,
// restoring the host rung afterwards, and skips when this CPU lacks l.
func useBMKernel(tb testing.TB, l bmLevel) {
	tb.Helper()
	if l > hostBMLevel {
		tb.Skipf("host lacks the %s Box-Muller kernel (best rung: %s)", l, hostBMLevel)
	}
	prev := bmKernel
	bmKernel = l
	tb.Cleanup(func() { bmKernel = prev })
}

// fillLengths crosses every 8-pair kernel group boundary up to 40 values
// and the 64-pair chunk boundaries of the kernel path.
func fillLengths() []int {
	var ns []int
	for n := 0; n <= 40; n++ {
		ns = append(ns, n)
	}
	return append(ns, 127, 128, 129, 255, 256, 257, 1024, 1025)
}

// TestFillNormalMatchesScalar asserts the batched fill's central contract
// on every Box-Muller kernel rung: for any length and any pair-cache state,
// FillNormal produces exactly the values a scalar mu + sigma*NormFloat32()
// loop would, and leaves the generator (stream position and cached
// Gaussian) in exactly the state the scalar loop would — so draws after
// the fill are also unperturbed.
func TestFillNormalMatchesScalar(t *testing.T) {
	for l := bmGo; l <= bmAVX512; l++ {
		t.Run(l.String(), func(t *testing.T) {
			useBMKernel(t, l)
			for _, n := range fillLengths() {
				for _, preload := range []int{0, 1} {
					a, b := New(uint64(1000+n)), New(uint64(1000+n))
					// preload=1 parks one value in the Box-Muller cache so
					// the fill starts mid-pair.
					for i := 0; i < preload; i++ {
						if a.NormFloat64() != b.NormFloat64() {
							t.Fatal("seed mismatch")
						}
					}
					got := make([]float32, n)
					a.FillNormal(got, 0.25, 1.5)
					for i := range got {
						want := 0.25 + 1.5*b.NormFloat32()
						if math.Float32bits(got[i]) != math.Float32bits(want) {
							t.Fatalf("n=%d preload=%d: FillNormal[%d] = %v, scalar = %v",
								n, preload, i, got[i], want)
						}
					}
					checkSameState(t, a, b, n, preload)
				}
			}
		})
	}
}

// TestFillNormalAddMatchesScalar is the accumulate variant of the contract:
// dst[i] += sigma*N(0,1) with the identical draw order and trailing cache
// state as the scalar loop, on every Box-Muller kernel rung.
func TestFillNormalAddMatchesScalar(t *testing.T) {
	for l := bmGo; l <= bmAVX512; l++ {
		t.Run(l.String(), func(t *testing.T) {
			useBMKernel(t, l)
			for _, n := range fillLengths() {
				for _, preload := range []int{0, 1} {
					a, b := New(uint64(2000+n)), New(uint64(2000+n))
					for i := 0; i < preload; i++ {
						a.NormFloat64()
						b.NormFloat64()
					}
					base := New(7)
					got := make([]float32, n)
					base.FillUniform(got, -2, 2)
					want := append([]float32(nil), got...)

					a.FillNormalAdd(got, 0.04)
					for i := range want {
						want[i] += 0.04 * b.NormFloat32()
					}
					for i := range got {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("n=%d preload=%d: FillNormalAdd[%d] = %v, scalar = %v",
								n, preload, i, got[i], want[i])
						}
					}
					checkSameState(t, a, b, n, preload)
				}
			}
		})
	}
}

// checkSameState requires the next draws of a and b — the cached Gaussian
// first, then fresh pairs — to agree bit for bit.
func checkSameState(t *testing.T, a, b *Rand, n, preload int) {
	t.Helper()
	for i := 0; i < 5; i++ {
		x, y := a.NormFloat64(), b.NormFloat64()
		if math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("n=%d preload=%d: post-fill draw %d diverged: %v vs %v",
				n, preload, i, x, y)
		}
	}
}

// BenchmarkFillNormalAdd times the v1 batched fill on each Box-Muller
// kernel rung at the row widths the analog read paths draw.
func BenchmarkFillNormalAdd(b *testing.B) {
	for l := bmGo; l <= bmAVX512; l++ {
		for _, n := range []int{64, 256, 1024} {
			b.Run(fmt.Sprintf("%s/%d", l, n), func(b *testing.B) {
				useBMKernel(b, l)
				r := New(61)
				dst := make([]float32, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.FillNormalAdd(dst, 1e-3)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
			})
		}
	}
}
