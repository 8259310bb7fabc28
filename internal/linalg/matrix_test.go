package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// FromRows builds a matrix from a slice of equally sized rows.
// The data is copied.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return New(0, 0), nil
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("linalg: ragged input: row %d has %d cols, want %d", i, len(r), cols)
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Mul returns a×b.
func Mul(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("linalg: dimension mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j := 0; j < b.Cols; j++ {
				orow[j] += aik * brow[j]
			}
		}
	}
	return out, nil
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("got %dx%d, want 3x2", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 {
		t.Errorf("At(2,1) = %v, want 6", m.At(2, 1))
	}
}

func TestFromRowsRagged(t *testing.T) {
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m, err := FromRows(nil)
	if err != nil {
		t.Fatalf("FromRows(nil): %v", err)
	}
	if m.Rows != 0 || m.Cols != 0 {
		t.Errorf("got %dx%d, want 0x0", m.Rows, m.Cols)
	}
}

func TestMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := Mul(a, b)
	if err != nil {
		t.Fatalf("Mul: %v", err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Errorf("c[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulDimensionMismatch(t *testing.T) {
	a := New(2, 3)
	b := New(2, 3)
	if _, err := Mul(a, b); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

// mulVec returns a·x.
func mulVec(a *Matrix, x []float64) []float64 {
	out := make([]float64, a.Rows)
	for i := range out {
		for j, v := range a.Row(i) {
			out[i] += v * x[j]
		}
	}
	return out
}

func TestSolve(t *testing.T) {
	a, _ := FromRows([][]float64{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}})
	b := []float64{8, -11, -3}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("expected singular matrix error")
	}
}

func TestSolveDoesNotMutateInputs(t *testing.T) {
	a, _ := FromRows([][]float64{{4, 1}, {1, 3}})
	b := []float64{1, 2}
	orig := a.Clone()
	if _, err := Solve(a, b); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for i := range a.Data {
		if a.Data[i] != orig.Data[i] {
			t.Fatal("Solve mutated its input matrix")
		}
	}
	if b[0] != 1 || b[1] != 2 {
		t.Fatal("Solve mutated its rhs")
	}
}

// Property: Solve returns x with a·x = b for random well-conditioned systems.
func TestSolveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		a := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.NormFloat64())
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonally dominant-ish
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		ax := mulVec(a, x)
		for i := range b {
			if math.Abs(ax[i]-b[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestJacobiEigenDiagonal(t *testing.T) {
	a, _ := FromRows([][]float64{{3, 0}, {0, 1}})
	vals, vecs, err := JacobiEigen(a)
	if err != nil {
		t.Fatalf("JacobiEigen: %v", err)
	}
	if math.Abs(vals[0]-3) > 1e-9 || math.Abs(vals[1]-1) > 1e-9 {
		t.Errorf("eigenvalues %v, want [3 1]", vals)
	}
	if vecs.Rows != 2 || vecs.Cols != 2 {
		t.Errorf("vectors %dx%d, want 2x2", vecs.Rows, vecs.Cols)
	}
}

func TestJacobiEigenKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a, _ := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := JacobiEigen(a)
	if err != nil {
		t.Fatalf("JacobiEigen: %v", err)
	}
	if math.Abs(vals[0]-3) > 1e-9 || math.Abs(vals[1]-1) > 1e-9 {
		t.Errorf("eigenvalues %v, want [3 1]", vals)
	}
	// Verify a·v = λ·v for each column.
	for c := 0; c < 2; c++ {
		v := []float64{vecs.At(0, c), vecs.At(1, c)}
		av := mulVec(a, v)
		for i := range v {
			if math.Abs(av[i]-vals[c]*v[i]) > 1e-8 {
				t.Errorf("column %d is not an eigenvector: a·v=%v λv=%v", c, av[i], vals[c]*v[i])
			}
		}
	}
}

// Property: for random symmetric matrices, eigenvalues are sorted descending,
// eigenvectors are orthonormal, and a·v = λ·v.
func TestJacobiEigenProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		a := New(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := r.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, vecs, err := JacobiEigen(a)
		if err != nil {
			return false
		}
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-9 {
				return false // not sorted descending
			}
		}
		for c := 0; c < n; c++ {
			v := make([]float64, n)
			norm := 0.0
			for rI := 0; rI < n; rI++ {
				v[rI] = vecs.At(rI, c)
				norm += v[rI] * v[rI]
			}
			if math.Abs(norm-1) > 1e-6 {
				return false // not unit length
			}
			av := mulVec(a, v)
			for i := range v {
				if math.Abs(av[i]-vals[c]*v[i]) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
