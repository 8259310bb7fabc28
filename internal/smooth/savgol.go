// Package smooth implements the Savitzky-Golay least-squares smoothing
// filter used by the labeling methodology (paper §2.2, step 1). The filter
// fits a polynomial of a given order to a sliding window and replaces each
// point with the value of the fitted polynomial at that point.
package smooth

import (
	"fmt"

	"monitorless/internal/linalg"
)

// SavGol is a Savitzky-Golay filter with a fixed window and polynomial order.
type SavGol struct {
	window int // full window length, odd
	order  int // polynomial order < window
	coeffs []float64
}

// NewSavGol builds a filter. window must be odd and > order >= 0.
func NewSavGol(window, order int) (*SavGol, error) {
	if window < 1 || window%2 == 0 {
		return nil, fmt.Errorf("smooth: window must be odd and positive, got %d", window)
	}
	if order < 0 || order >= window {
		return nil, fmt.Errorf("smooth: order must satisfy 0 <= order < window, got order=%d window=%d", order, window)
	}
	c, err := centralCoeffs(window, order, 0)
	if err != nil {
		return nil, err
	}
	return &SavGol{window: window, order: order, coeffs: c}, nil
}

// centralCoeffs computes the convolution coefficients that evaluate the
// fitted polynomial at offset `at` (in samples, relative to window center).
// The classic derivation: with design matrix A[i][j] = i^j for
// i ∈ [-m, m], the smoothed value is t(at)·(AᵀA)⁻¹Aᵀ·y where t(at) is the
// monomial vector at `at`.
func centralCoeffs(window, order, at int) ([]float64, error) {
	m := window / 2
	cols := order + 1
	ata := linalg.New(cols, cols)
	for i := -m; i <= m; i++ {
		pow := make([]float64, cols)
		p := 1.0
		for j := 0; j < cols; j++ {
			pow[j] = p
			p *= float64(i)
		}
		for a := 0; a < cols; a++ {
			for b := 0; b < cols; b++ {
				ata.Set(a, b, ata.At(a, b)+pow[a]*pow[b])
			}
		}
	}
	// Solve (AᵀA) z = t(at) then coefficient for sample offset i is z·pow(i).
	t := make([]float64, cols)
	p := 1.0
	for j := 0; j < cols; j++ {
		t[j] = p
		p *= float64(at)
	}
	z, err := linalg.Solve(ata, t)
	if err != nil {
		return nil, fmt.Errorf("smooth: degenerate design matrix: %w", err)
	}
	coeffs := make([]float64, window)
	for idx, i := 0, -m; i <= m; idx, i = idx+1, i+1 {
		s := 0.0
		p := 1.0
		for j := 0; j < cols; j++ {
			s += z[j] * p
			p *= float64(i)
		}
		coeffs[idx] = s
	}
	return coeffs, nil
}

// Apply smooths y and returns a new slice of the same length. Edges are
// handled by fitting the polynomial to the first/last full window and
// evaluating it at the edge offsets (scipy's "interp" mode).
func (f *SavGol) Apply(y []float64) ([]float64, error) {
	n := len(y)
	if n == 0 {
		return nil, nil
	}
	if n < f.window {
		return nil, fmt.Errorf("smooth: series length %d shorter than window %d", n, f.window)
	}
	m := f.window / 2
	out := make([]float64, n)

	// Interior: plain convolution with the center coefficients.
	for i := m; i < n-m; i++ {
		s := 0.0
		for k, c := range f.coeffs {
			s += c * y[i-m+k]
		}
		out[i] = s
	}
	// Leading edge: fit to y[0:window], evaluate at offsets -m..-1.
	for i := 0; i < m; i++ {
		c, err := centralCoeffs(f.window, f.order, i-m)
		if err != nil {
			return nil, err
		}
		s := 0.0
		for k, cv := range c {
			s += cv * y[k]
		}
		out[i] = s
	}
	// Trailing edge: fit to y[n-window:n], evaluate at offsets 1..m.
	for i := n - m; i < n; i++ {
		c, err := centralCoeffs(f.window, f.order, i-(n-1-m))
		if err != nil {
			return nil, err
		}
		s := 0.0
		for k, cv := range c {
			s += cv * y[n-f.window+k]
		}
		out[i] = s
	}
	return out, nil
}

// Smooth is a convenience wrapper that constructs a filter and applies it.
func Smooth(y []float64, window, order int) ([]float64, error) {
	f, err := NewSavGol(window, order)
	if err != nil {
		return nil, err
	}
	return f.Apply(y)
}
