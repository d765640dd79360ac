//go:build amd64

package rng

import (
	"math"
	"os"
	"regexp"
	"testing"
)

// checkKernelPairs runs the AVX-512F transform on the pairs (u[i], v[i]),
// padded to whole 8-pair groups, and requires every float64 output — and
// every float32 sum of the accumulating kernel — to equal boxMuller's bit
// for bit.
func checkKernelPairs(t *testing.T, u, v []float64) {
	t.Helper()
	for len(u)%8 != 0 {
		u, v = append(u, 0.5), append(v, 0.5)
	}
	n := len(u)
	c, s := make([]float64, n), make([]float64, n)
	boxMullerPairsAVX512(&c[0], &s[0], &u[0], &v[0], n)
	const sigma = 0.75
	got := make([]float32, 2*n)
	New(3).FillUniform(got, -1, 1)
	want := append([]float32(nil), got...)
	boxMullerAdd(got, u, v, sigma)
	for i := range u {
		wc, ws := boxMuller(u[i], v[i])
		if math.Float64bits(c[i]) != math.Float64bits(wc) || math.Float64bits(s[i]) != math.Float64bits(ws) {
			t.Fatalf("pair %d (u=%v %#x, v=%v %#x): kernel (%v, %v), boxMuller (%v, %v)",
				i, u[i], math.Float64bits(u[i]), v[i], math.Float64bits(v[i]), c[i], s[i], wc, ws)
		}
		want[2*i] += sigma * float32(wc)
		want[2*i+1] += sigma * float32(ws)
		for j := 2 * i; j < 2*i+2; j++ {
			if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
				t.Fatalf("pair %d (u=%v, v=%v): accumulated dst[%d] = %v, scalar %v", i, u[i], v[i], j, got[j], want[j])
			}
		}
	}
}

// TestBoxMullerKernelMatchesScalar checks the kernel against boxMuller on
// random pairs of the v1 stream's own uniforms.
func TestBoxMullerKernelMatchesScalar(t *testing.T) {
	useBMKernel(t, bmAVX512)
	n := 2_000_000
	if testing.Short() {
		n = 200_000
	}
	r := New(0xB0C5)
	const batch = 1 << 14
	u, v := make([]float64, batch), make([]float64, batch)
	for done := 0; done < n; done += batch {
		for i := range u {
			u[i] = r.uniformOpen()
			v[i] = r.Float64()
		}
		checkKernelPairs(t, u, v)
	}
}

// TestBoxMullerKernelEdgeCases drives the kernel through the inputs where
// a lane-wise replay of archLog and Sincos would diverge first: the ends of
// both uniform ranges, powers of two (f1 = 0.5, so k takes its -1 branch),
// u whose reduced mantissa f1 equals HSqrt2 exactly (archLog's CMPSD
// predicate 5, not-less-than, takes the k -= 1 branch where log.go's
// strict < would not; both branches happen to round to the same log
// there, so this pins the kernel's agreement, not the branch), and dense
// neighborhoods of v = k/8, where x·4/π truncates to an odd octant and
// gets bumped.
func TestBoxMullerKernelEdgeCases(t *testing.T) {
	useBMKernel(t, bmAVX512)
	const ulp = 1.0 / (1 << 53)
	const hsqrt2 = 7.07106781186547524401e-01
	r := New(0xED6E)
	var us, vs []float64
	addU := func(u float64) {
		if u > 0 && u < 1 {
			us = append(us, u)
			vs = append(vs, r.Float64())
		}
	}
	addV := func(v float64) {
		if v >= 0 && v < 1 {
			us = append(us, r.uniformOpen())
			vs = append(vs, v)
		}
	}
	addU(ulp)
	addU(1 - ulp)
	for e := 1; e <= 1074; e++ {
		addU(math.Ldexp(1, -e))
	}
	// u = HSqrt2·2^-e keeps the mantissa of HSqrt2, so f1 = HSqrt2 exactly;
	// its neighbors sit on either side of the branch.
	for e := 0; e <= 60; e++ {
		h := math.Ldexp(hsqrt2, -e)
		if f1, _ := math.Frexp(h); f1 != hsqrt2 {
			t.Fatalf("HSqrt2·2^-%d has f1 = %v", e, f1)
		}
		addU(h)
		addU(math.Nextafter(h, 0))
		addU(math.Nextafter(h, 1))
	}
	addV(0)
	addV(1 - ulp)
	for k := 0; k <= 8; k++ {
		lo, hi := float64(k)/8, float64(k)/8
		addV(lo)
		for i := 0; i < 500; i++ {
			lo = math.Nextafter(lo, math.Inf(-1))
			hi = math.Nextafter(hi, math.Inf(1))
			addV(lo)
			addV(hi)
		}
	}
	// Every edge u against every octant boundary v.
	nu := len(us)
	for i := 0; i < nu; i++ {
		for k := 0; k < 8; k++ {
			us = append(us, us[i])
			vs = append(vs, float64(k)/8)
		}
	}
	checkKernelPairs(t, us, vs)
}

// TestBoxMullerKernelHasNoFMA guards the kernel's rounding contract: a
// fused multiply-add rounds once where VMULPD+VADDPD round twice, so a
// single FMA mnemonic in the kernel source would break bit-exactness.
func TestBoxMullerKernelHasNoFMA(t *testing.T) {
	src, err := os.ReadFile("boxmuller_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	if m := regexp.MustCompile(`(?i)\bVF(N?MADD|N?MSUB)\w*`).Find(src); m != nil {
		t.Fatalf("boxmuller_amd64.s uses the fused multiply-add %s", m)
	}
}
