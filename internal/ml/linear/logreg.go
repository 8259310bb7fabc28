// Package linear implements the two linear baselines of the paper's
// Table 3: binary logistic regression trained with the stochastic average
// gradient (SAG) solver (Schmidt et al. 2017), and a linear support vector
// classifier in the spirit of LIBLINEAR (hinge loss with L1/L2 penalty).
package linear

import (
	"fmt"
	"math"
	"math/rand"

	"monitorless/internal/ml"
)

// LogRegConfig mirrors scikit-learn's LogisticRegression(C, tol,
// class_weight, solver="sag") — the axes of the paper's Table 2 grid.
type LogRegConfig struct {
	// C is the inverse regularization strength (L2 penalty = 1/C).
	C float64
	// Tol is the stopping tolerance on the weight update norm.
	Tol float64
	// ClassWeight is "" or "balanced".
	ClassWeight string
	// MaxEpochs bounds the SAG passes (default 100).
	MaxEpochs int
	// Seed seeds the sampling order.
	Seed int64
}

// LogReg is a fitted binary logistic regression model.
type LogReg struct {
	cfg  LogRegConfig
	w    []float64
	bias float64
}

var _ ml.Classifier = (*LogReg)(nil)

// NewLogReg returns an unfitted logistic regression.
func NewLogReg(cfg LogRegConfig) *LogReg {
	if cfg.C <= 0 {
		cfg.C = 1
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-4
	}
	if cfg.MaxEpochs <= 0 {
		cfg.MaxEpochs = 100
	}
	return &LogReg{cfg: cfg}
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// Fit trains with SAG: it keeps a memory of the last gradient scalar per
// sample and steps along the running average of all stored gradients.
func (m *LogReg) Fit(x [][]float64, y []int) error {
	d, err := ml.ValidateTrainingSet(x, y)
	if err != nil {
		return err
	}
	sw, err := ml.ClassWeights(y, m.cfg.ClassWeight)
	if err != nil {
		return fmt.Errorf("linear: %w", err)
	}

	n := len(x)
	m.w = make([]float64, d)
	m.bias = 0

	// Per-sample stored gradient scalar g_i = w_i·(σ(z_i) − y_i); full
	// gradient for sample i is g_i·x_i.
	grad := make([]float64, n)
	sumGrad := make([]float64, d) // Σ_i g_i·x_i
	sumGradBias := 0.0
	seen := 0
	visited := make([]bool, n)

	// Lipschitz-derived step size: L = 0.25·max‖x‖² + λ.
	lambda := 1 / (m.cfg.C * float64(n))
	maxNorm := 0.0
	for _, row := range x {
		s := 0.0
		for _, v := range row {
			s += v * v
		}
		if s > maxNorm {
			maxNorm = s
		}
	}
	step := 1 / (0.25*maxNorm + lambda + 1e-12)

	rng := rand.New(rand.NewSource(m.cfg.Seed))
	for epoch := 0; epoch < m.cfg.MaxEpochs; epoch++ {
		maxUpdate := 0.0
		for iter := 0; iter < n; iter++ {
			i := rng.Intn(n)
			if !visited[i] {
				visited[i] = true
				seen++
			}
			row := x[i]
			z := m.bias
			for j, v := range row {
				z += m.w[j] * v
			}
			gNew := sw[i] * (sigmoid(z) - float64(y[i]))
			delta := gNew - grad[i]
			grad[i] = gNew
			for j, v := range row {
				sumGrad[j] += delta * v
			}
			sumGradBias += delta

			inv := 1 / float64(seen)
			for j := range m.w {
				upd := step * (sumGrad[j]*inv + lambda*m.w[j])
				m.w[j] -= upd
				if a := math.Abs(upd); a > maxUpdate {
					maxUpdate = a
				}
			}
			m.bias -= step * sumGradBias * inv
		}
		if maxUpdate < m.cfg.Tol {
			break
		}
	}
	return nil
}

// PredictProba returns σ(w·x + b).
func (m *LogReg) PredictProba(x []float64) float64 {
	if m.w == nil {
		return 0.5
	}
	z := m.bias
	for j, v := range x {
		z += m.w[j] * v
	}
	return sigmoid(z)
}

// Predict thresholds the probability at 0.5.
func (m *LogReg) Predict(x []float64) int {
	if m.PredictProba(x) >= 0.5 {
		return 1
	}
	return 0
}
