package linalg

import (
	"errors"
	"fmt"
)

// PCA performs principal component analysis via an eigen-decomposition of
// the sample covariance matrix. It mirrors the scikit-learn behaviour used
// by the paper: fit on training data, select enough components to explain a
// target fraction of variance (or a fixed count). The projection itself,
// x ↦ Components·(x − Mean), is the feature pipeline's PCA kernel.
type PCA struct {
	// Mean is the per-column mean of the training data.
	Mean []float64
	// Components holds one principal axis per row (k×d).
	Components *Matrix
	// ExplainedVariance holds the eigenvalue of each retained component.
	ExplainedVariance []float64
	// TotalVariance is the sum of all eigenvalues (before truncation).
	TotalVariance float64
}

// ErrEmptyInput is returned when PCA is fit on an empty dataset.
var ErrEmptyInput = errors.New("linalg: empty input")

// FitPCA fits a PCA on x (rows = samples). Exactly one of maxComponents>0 or
// varianceTarget in (0,1] selects the number of retained components; if both
// are set the stricter (smaller) count wins.
func FitPCA(x *Matrix, maxComponents int, varianceTarget float64) (*PCA, error) {
	n, d := x.Rows, x.Cols
	if n == 0 || d == 0 {
		return nil, ErrEmptyInput
	}
	if maxComponents <= 0 && (varianceTarget <= 0 || varianceTarget > 1) {
		return nil, fmt.Errorf("linalg: invalid PCA selection (maxComponents=%d, varianceTarget=%v)", maxComponents, varianceTarget)
	}

	mean := make([]float64, d)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}

	// Covariance matrix (d×d).
	cov := New(d, d)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for a := 0; a < d; a++ {
			da := row[a] - mean[a]
			if da == 0 {
				continue
			}
			crow := cov.Row(a)
			for b := a; b < d; b++ {
				crow[b] += da * (row[b] - mean[b])
			}
		}
	}
	denom := float64(n - 1)
	if n == 1 {
		denom = 1
	}
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			v := cov.At(a, b) / denom
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}

	vals, vecs, err := JacobiEigen(cov)
	if err != nil {
		return nil, fmt.Errorf("linalg: pca eigen: %w", err)
	}

	total := 0.0
	for _, v := range vals {
		if v > 0 {
			total += v
		}
	}

	k := d
	if varianceTarget > 0 && varianceTarget <= 1 && total > 0 {
		cum := 0.0
		for i, v := range vals {
			if v > 0 {
				cum += v
			}
			if cum/total >= varianceTarget {
				k = i + 1
				break
			}
		}
	}
	if maxComponents > 0 && maxComponents < k {
		k = maxComponents
	}
	if k > d {
		k = d
	}

	comps := New(k, d)
	ev := make([]float64, k)
	for c := 0; c < k; c++ {
		ev[c] = vals[c]
		for r := 0; r < d; r++ {
			comps.Set(c, r, vecs.At(r, c))
		}
	}
	return &PCA{Mean: mean, Components: comps, ExplainedVariance: ev, TotalVariance: total}, nil
}

// NumComponents returns the number of retained principal components.
func (p *PCA) NumComponents() int { return p.Components.Rows }
