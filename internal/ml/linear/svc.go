package linear

import (
	"fmt"
	"math"
	"math/rand"

	"monitorless/internal/frame"
	"monitorless/internal/ml"
)

// Penalty selects the SVC regularizer.
type Penalty int

const (
	// L2 is the standard squared-norm penalty.
	L2 Penalty = iota
	// L1 produces sparse weights (the paper's grid selected l1).
	L1
)

// SVCConfig mirrors LinearSVC(C, tol, penalty, class_weight) from the
// paper's Table 2 grid. The paper uses a linear kernel only.
type SVCConfig struct {
	// C is the inverse regularization strength (paper: 10).
	C float64
	// Tol is the stopping tolerance (paper: 0.01).
	Tol float64
	// Penalty is L1 or L2 (paper: l1).
	Penalty Penalty
	// ClassWeight is "" or "balanced".
	ClassWeight string
	// MaxEpochs bounds training passes (default 60).
	MaxEpochs int
	// Seed seeds the sampling order.
	Seed int64
}

// SVC is a linear support vector classifier trained by stochastic
// subgradient descent on the hinge loss (Pegasos-style schedule), with
// optional L1 truncated-gradient regularization.
type SVC struct {
	cfg  SVCConfig
	w    []float64
	bias float64
}

var _ ml.Classifier = (*SVC)(nil)

// NewSVC returns an unfitted linear SVC.
func NewSVC(cfg SVCConfig) *SVC {
	if cfg.C <= 0 {
		cfg.C = 1
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-4
	}
	if cfg.MaxEpochs <= 0 {
		cfg.MaxEpochs = 60
	}
	return &SVC{cfg: cfg}
}

// FitFrame trains the SVC on the listed frame rows (nil = all). Labels
// are mapped to ±1 internally.
func (m *SVC) FitFrame(fr *frame.Frame, y []int, rows []int) error {
	x, y, err := ml.TrainingRows(fr, y, rows)
	if err != nil {
		return err
	}
	d := fr.NumCols()
	sw, err := ml.ClassWeights(y, m.cfg.ClassWeight)
	if err != nil {
		return fmt.Errorf("linear: %w", err)
	}

	n := len(x)
	m.w = make([]float64, d)
	m.bias = 0
	lambda := 1 / (m.cfg.C * float64(n))

	rng := rand.New(rand.NewSource(m.cfg.Seed))
	t := 1
	prev := make([]float64, d)
	for epoch := 0; epoch < m.cfg.MaxEpochs; epoch++ {
		copy(prev, m.w)
		for iter := 0; iter < n; iter, t = iter+1, t+1 {
			i := rng.Intn(n)
			// Pegasos schedule with an offset that caps the first step at
			// 1 (the bare 1/(λt) schedule takes wild early steps when λ
			// is small and never recovers sparsity).
			eta := 1 / (lambda * (float64(t) + 1/lambda))
			yi := 2*float64(y[i]) - 1
			row := x[i]
			z := m.bias
			for j, v := range row {
				z += m.w[j] * v
			}
			if yi*z < 1 { // inside the margin: hinge subgradient
				g := eta * sw[i]
				for j, v := range row {
					m.w[j] += g * yi * v
				}
				m.bias += g * yi
			}
			switch m.cfg.Penalty {
			case L1:
				// Truncated-gradient L1 shrinkage (applied after the
				// gradient step so untouched weights decay to exact zero).
				shrink := eta * lambda
				for j := range m.w {
					if m.w[j] > shrink {
						m.w[j] -= shrink
					} else if m.w[j] < -shrink {
						m.w[j] += shrink
					} else {
						m.w[j] = 0
					}
				}
			default:
				f := 1 - eta*lambda
				if f < 0 {
					f = 0
				}
				for j := range m.w {
					m.w[j] *= f
				}
			}
		}
		diff := 0.0
		for j := range m.w {
			diff = math.Max(diff, math.Abs(m.w[j]-prev[j]))
		}
		if diff < m.cfg.Tol {
			break
		}
	}
	return nil
}

// Decision returns the signed margin w·x + b.
func (m *SVC) Decision(x []float64) float64 {
	z := m.bias
	for j, v := range x {
		z += m.w[j] * v
	}
	return z
}

// PredictProba squashes the margin through a logistic link. LinearSVC has
// no calibrated probabilities; this mirrors the common decision→sigmoid
// approximation and is only used for ranking.
func (m *SVC) PredictProba(x []float64) float64 {
	if m.w == nil {
		return 0.5
	}
	return sigmoid(m.Decision(x))
}

// Predict returns 1 for a positive margin.
func (m *SVC) Predict(x []float64) int {
	if m.w == nil {
		return 0
	}
	if m.Decision(x) >= 0 {
		return 1
	}
	return 0
}
