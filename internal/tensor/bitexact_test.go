package tensor

import (
	"math"
	"testing"

	"nora/internal/rng"
)

// The blocked/unrolled kernels carry a stronger promise than "numerically
// close": every output element is accumulated in strictly increasing k
// order in float32, so results are BIT-IDENTICAL to the simple scalar
// loops below no matter how the kernel panels, unrolls, or parallelizes.
// The analog simulator's reproducibility contract (same seed → same bits)
// rests on this, so these tests compare with Float32bits, not a tolerance.

// seqMatMul is the order-defining reference: out[i,j] = Σ_k a[i,k]·b[k,j]
// accumulated in float32 in increasing k.
func seqMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for k := 0; k < a.Cols; k++ {
				s += float32(a.At(i, k) * b.At(k, j)) // no fused multiply-add
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func seqMatMulT(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float32
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func bitsEqual(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v (bits %08x), want %v (bits %08x)",
				what, i, v, math.Float32bits(v), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// sparseMatrix returns a random matrix with a large fraction of exact
// zeros, exercising the kernels' zero-group skip paths.
func sparseMatrix(r *rng.Rand, rows, cols int) *Matrix {
	m := randMatrix(r, rows, cols)
	for i := range m.Data {
		if r.Float32() < 0.6 {
			m.Data[i] = 0
		}
	}
	return m
}

func TestMatMulBitExact(t *testing.T) {
	r := rng.New(31)
	shapes := [][3]int{
		{1, 1, 1}, {3, 5, 7}, {4, 16, 8}, {5, 17, 9}, // odd remainders
		{2, 1500, 33}, // k crosses multiple cache panels
		{64, 96, 48},  // work > parallelThreshold → goroutine path
		{63, 97, 129}, // parallel + odd everything
	}
	for _, sh := range shapes {
		n, k, m := sh[0], sh[1], sh[2]
		for _, sparse := range []bool{false, true} {
			a, b := randMatrix(r, n, k), randMatrix(r, k, m)
			if sparse {
				a, b = sparseMatrix(r, n, k), sparseMatrix(r, k, m)
			}
			want := seqMatMul(a, b)
			bitsEqual(t, "MatMul", MatMul(a, b), want)
			out := randMatrix(r, n, m) // junk: MatMulInto must fully overwrite
			MatMulInto(out, a, b)
			bitsEqual(t, "MatMulInto", out, want)
		}
	}
}

func TestMatMulTBitExact(t *testing.T) {
	r := rng.New(37)
	shapes := [][3]int{{1, 1, 1}, {3, 7, 5}, {5, 17, 9}, {2, 900, 21}, {63, 65, 67}}
	for _, sh := range shapes {
		n, k, m := sh[0], sh[1], sh[2]
		a, b := randMatrix(r, n, k), randMatrix(r, m, k)
		want := seqMatMulT(a, b)
		bitsEqual(t, "MatMulT", MatMulT(a, b), want)
		out := randMatrix(r, n, m)
		MatMulTInto(out, a, b)
		bitsEqual(t, "MatMulTInto", out, want)
	}
}

func TestMulVecVecMulBitExact(t *testing.T) {
	r := rng.New(41)
	for _, sh := range [][2]int{{1, 1}, {4, 4}, {5, 9}, {17, 33}, {130, 700}} {
		rows, cols := sh[0], sh[1]
		m := sparseMatrix(r, rows, cols)
		x := make([]float32, cols)
		r.FillNormal(x, 0, 1)
		// MulVec: dst[i] = Σ_j m[i,j]·x[j], j-ascending float32 sums.
		wantMV := make([]float32, rows)
		for i := 0; i < rows; i++ {
			var s float32
			for j, v := range m.Row(i) {
				s += v * x[j]
			}
			wantMV[i] = s
		}
		gotMV := MulVec(m, x)
		into := make([]float32, rows)
		r.FillNormal(into, 0, 1)
		MulVecInto(into, m, x)
		for i := range wantMV {
			if math.Float32bits(gotMV[i]) != math.Float32bits(wantMV[i]) ||
				math.Float32bits(into[i]) != math.Float32bits(wantMV[i]) {
				t.Fatalf("MulVec(%dx%d)[%d] = %v / %v, want %v", rows, cols, i, gotMV[i], into[i], wantMV[i])
			}
		}
		// VecMul: dst[j] = Σ_k y[k]·m[k,j], k-ascending float32 sums.
		y := make([]float32, rows)
		r.FillNormal(y, 0, 1)
		for i := range y {
			if r.Float32() < 0.5 {
				y[i] = 0 // exercise the axpy zero-row skip
			}
		}
		wantVM := make([]float32, cols)
		for k := 0; k < rows; k++ {
			for j, v := range m.Row(k) {
				wantVM[j] += y[k] * v
			}
		}
		gotVM := VecMul(y, m)
		into2 := make([]float32, cols)
		r.FillNormal(into2, 0, 1)
		VecMulInto(into2, y, m)
		for j := range wantVM {
			if math.Float32bits(gotVM[j]) != math.Float32bits(wantVM[j]) ||
				math.Float32bits(into2[j]) != math.Float32bits(wantVM[j]) {
				t.Fatalf("VecMul(%dx%d)[%d] = %v / %v, want %v", rows, cols, j, gotVM[j], into2[j], wantVM[j])
			}
		}
	}
}

func TestSliceColsIntoMatchesSliceCols(t *testing.T) {
	r := rng.New(43)
	m := randMatrix(r, 9, 14)
	want := m.SliceCols(3, 11)
	dst := randMatrix(r, 9, 8)
	m.SliceColsInto(dst, 3, 11)
	bitsEqual(t, "SliceColsInto", dst, want)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	m.SliceColsInto(New(9, 3), 3, 11)
}
