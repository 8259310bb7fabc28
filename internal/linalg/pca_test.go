package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// genCorrelated builds n samples in 3 dims where dim2 = 2*dim0 (perfectly
// correlated) and dim1 is independent, so 2 components explain everything.
func genCorrelated(n int, seed int64) *Matrix {
	r := rand.New(rand.NewSource(seed))
	m := New(n, 3)
	for i := 0; i < n; i++ {
		a := r.NormFloat64()
		b := r.NormFloat64()
		m.Set(i, 0, a)
		m.Set(i, 1, b)
		m.Set(i, 2, 2*a)
	}
	return m
}

// transformAll projects every row of x: centred on the mean, then
// multiplied by the components.
func transformAll(p *PCA, x *Matrix) *Matrix {
	out := New(x.Rows, p.NumComponents())
	centred := make([]float64, x.Cols)
	for i := 0; i < x.Rows; i++ {
		for j, v := range x.Row(i) {
			centred[j] = v - p.Mean[j]
		}
		copy(out.Row(i), mulVec(p.Components, centred))
	}
	return out
}

func TestFitPCAVarianceTarget(t *testing.T) {
	x := genCorrelated(300, 1)
	p, err := FitPCA(x, 0, 0.999)
	if err != nil {
		t.Fatalf("FitPCA: %v", err)
	}
	if got := p.NumComponents(); got != 2 {
		t.Errorf("NumComponents = %d, want 2 (one dim is redundant)", got)
	}
}

func TestFitPCAMaxComponents(t *testing.T) {
	x := genCorrelated(100, 2)
	p, err := FitPCA(x, 1, 0.9999)
	if err != nil {
		t.Fatalf("FitPCA: %v", err)
	}
	if p.NumComponents() != 1 {
		t.Errorf("NumComponents = %d, want 1 (capped)", p.NumComponents())
	}
}

func TestFitPCAErrors(t *testing.T) {
	if _, err := FitPCA(New(0, 0), 2, 0); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := FitPCA(New(3, 3), 0, 0); err == nil {
		t.Error("expected error for no selection criterion")
	}
	if _, err := FitPCA(New(3, 3), 0, 1.5); err == nil {
		t.Error("expected error for variance target > 1")
	}
}

// TestPCATransformDims: the fitted projection is k×d over d means, the
// shape the feature pipeline's kernel indexes without bounds checks.
func TestPCATransformDims(t *testing.T) {
	x := genCorrelated(120, 3)
	p, err := FitPCA(x, 2, 0)
	if err != nil {
		t.Fatalf("FitPCA: %v", err)
	}
	c := p.Components
	if c.Rows != 2 || c.Cols != 3 || len(p.Mean) != 3 || len(c.Data) != 6 {
		t.Errorf("projection is %d×%d over %d values with %d means, want 2×3 over 6 with 3", c.Rows, c.Cols, len(c.Data), len(p.Mean))
	}
}

func TestPCAPreservesVariance(t *testing.T) {
	// Project to full dimensionality: total variance must be preserved.
	x := genCorrelated(500, 4)
	p, err := FitPCA(x, 3, 0)
	if err != nil {
		t.Fatalf("FitPCA: %v", err)
	}
	proj := transformAll(p, x)
	varOf := func(m *Matrix) float64 {
		total := 0.0
		for c := 0; c < m.Cols; c++ {
			mean, sq := 0.0, 0.0
			for r := 0; r < m.Rows; r++ {
				mean += m.At(r, c)
			}
			mean /= float64(m.Rows)
			for r := 0; r < m.Rows; r++ {
				d := m.At(r, c) - mean
				sq += d * d
			}
			total += sq / float64(m.Rows-1)
		}
		return total
	}
	if a, b := varOf(x), varOf(proj); math.Abs(a-b) > 1e-6*a {
		t.Errorf("variance not preserved: original %v projected %v", a, b)
	}
}

func TestPCAFirstComponentDirection(t *testing.T) {
	// With dim2 = 2*dim0, the dominant component lies in the (1,0,2)/√5
	// direction (up to sign).
	x := genCorrelated(1000, 5)
	p, err := FitPCA(x, 1, 0)
	if err != nil {
		t.Fatalf("FitPCA: %v", err)
	}
	v := p.Components.Row(0)
	want := []float64{1 / math.Sqrt(5), 0, 2 / math.Sqrt(5)}
	// Align sign.
	sign := 1.0
	if v[0] < 0 {
		sign = -1
	}
	for i := range want {
		if math.Abs(sign*v[i]-want[i]) > 0.05 {
			t.Errorf("component[%d] = %v, want ~%v", i, sign*v[i], want[i])
		}
	}
}
