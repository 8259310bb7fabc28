// Package linalg provides the small dense linear-algebra kernel used by the
// feature pipeline (PCA) and the Savitzky-Golay filter. It is intentionally
// minimal: row-major dense matrices, Gaussian elimination, and a cyclic
// Jacobi eigensolver for symmetric matrices.
package linalg

import (
	"errors"
	"fmt"
	"math"

	"monitorless/internal/frame"
)

// Matrix is a dense, row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromFrame builds a row-major matrix from a column-major frame. The data
// is copied column by column (one contiguous source scan per column).
func FromFrame(fr *frame.Frame) (*Matrix, error) {
	if fr == nil {
		return nil, errors.New("linalg: nil frame")
	}
	rows, cols := fr.Rows(), fr.NumCols()
	if rows == 0 {
		return New(0, 0), nil
	}
	m := New(rows, cols)
	for j := 0; j < cols; j++ {
		src := fr.Col(j)
		for i, v := range src {
			m.Data[i*cols+j] = v
		}
	}
	return m, nil
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// MulVec returns a·x.
func MulVec(a *Matrix, x []float64) ([]float64, error) {
	if a.Cols != len(x) {
		return nil, fmt.Errorf("linalg: dimension mismatch %dx%d × vec(%d)", a.Rows, a.Cols, len(x))
	}
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("linalg: singular matrix")

// Solve solves a·x = b via Gaussian elimination with partial pivoting.
// a and b are not modified.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: solve requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if a.Rows != len(b) {
		return nil, fmt.Errorf("linalg: rhs length %d does not match matrix size %d", len(b), a.Rows)
	}
	n := a.Rows
	m := a.Clone()
	x := make([]float64, n)
	copy(x, b)

	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		if pivot != col {
			pr, cr := m.Row(pivot), m.Row(col)
			for j := range pr {
				pr[j], cr[j] = cr[j], pr[j]
			}
			x[pivot], x[col] = x[col], x[pivot]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			rr, cr := m.Row(r), m.Row(col)
			for j := col; j < n; j++ {
				rr[j] -= f * cr[j]
			}
			x[r] -= f * x[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		s := x[r]
		row := m.Row(r)
		for j := r + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[r] = s / row[r]
	}
	return x, nil
}

// JacobiEigen computes the eigen-decomposition of the symmetric matrix a
// using the cyclic Jacobi method. It returns the eigenvalues in descending
// order and the corresponding eigenvectors as the columns of the returned
// matrix. a is not modified.
func JacobiEigen(a *Matrix) (values []float64, vectors *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("linalg: eigen requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	s := a.Clone()
	v := New(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += s.At(i, j) * s.At(i, j)
			}
		}
		if off < 1e-22 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := s.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := s.At(p, p), s.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				sn := t * c
				rotate(s, v, p, q, c, sn)
			}
		}
	}

	values = make([]float64, n)
	for i := range values {
		values[i] = s.At(i, i)
	}
	// Sort eigenpairs by descending eigenvalue.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if values[order[j]] > values[order[i]] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	sortedVals := make([]float64, n)
	sortedVecs := New(n, n)
	for k, idx := range order {
		sortedVals[k] = values[idx]
		for r := 0; r < n; r++ {
			sortedVecs.Set(r, k, v.At(r, idx))
		}
	}
	return sortedVals, sortedVecs, nil
}

// rotate applies a Jacobi rotation in the (p, q) plane to s and accumulates
// the rotation into v.
func rotate(s, v *Matrix, p, q int, c, sn float64) {
	n := s.Rows
	for k := 0; k < n; k++ {
		skp, skq := s.At(k, p), s.At(k, q)
		s.Set(k, p, c*skp-sn*skq)
		s.Set(k, q, sn*skp+c*skq)
	}
	for k := 0; k < n; k++ {
		spk, sqk := s.At(p, k), s.At(q, k)
		s.Set(p, k, c*spk-sn*sqk)
		s.Set(q, k, sn*spk+c*sqk)
	}
	for k := 0; k < n; k++ {
		vkp, vkq := v.At(k, p), v.At(k, q)
		v.Set(k, p, c*vkp-sn*vkq)
		v.Set(k, q, sn*vkp+c*vkq)
	}
}
