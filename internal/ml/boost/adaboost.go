// Package boost implements the two boosted baselines of the paper's
// Table 3: AdaBoost with decision trees (Freund & Schapire 1997, including
// the SAMME and SAMME.R variants from the Table 2 grid) and an
// XGBoost-style second-order gradient-boosted tree ensemble (Chen &
// Guestrin 2016) with max_depth, min_child_weight and gamma knobs.
package boost

import (
	"fmt"
	"math"

	"monitorless/internal/frame"
	"monitorless/internal/ml"
	"monitorless/internal/ml/tree"
	"monitorless/internal/parallel"
)

// AdaVariant selects the boosting flavor.
type AdaVariant int

const (
	// SAMME uses discrete class votes.
	SAMME AdaVariant = iota
	// SAMMER (SAMME.R) uses real-valued class probabilities.
	SAMMER
)

// AdaBoostConfig mirrors the paper's Table 2 AdaBoost grid
// (n_estimators, algorithm, DT_criterion, DT_splitter, DT_min_samples_split).
type AdaBoostConfig struct {
	// NumEstimators is the boosting round count (paper: 50).
	NumEstimators int
	// Variant is SAMME or SAMME.R.
	Variant AdaVariant
	// LearningRate shrinks each stage (default 1).
	LearningRate float64
	// TreeCriterion, TreeSplitter, TreeMinSamplesSplit configure the base
	// trees (paper: gini, best, 5). With TreeSplitter == tree.Hist the
	// training rows are quantized once and every stage refits on the
	// shared binned columns.
	TreeCriterion       tree.Criterion
	TreeSplitter        tree.Splitter
	TreeMinSamplesSplit int
	// TreeBins caps per-column bins for the Hist splitter; 0 = 256.
	TreeBins int
	// TreeMaxDepth bounds base trees (default 3, scikit-learn uses stumps
	// of depth 1 but the paper pairs AdaBoost with decision trees).
	TreeMaxDepth int
	// Seed makes training deterministic.
	Seed int64
}

// AdaBoost is a fitted boosted ensemble.
type AdaBoost struct {
	cfg    AdaBoostConfig
	stages []*tree.Tree
	alphas []float64
	fitted bool
}

var _ ml.Classifier = (*AdaBoost)(nil)
var _ ml.FrameFitter = (*AdaBoost)(nil)

// NewAdaBoost returns an unfitted AdaBoost classifier.
func NewAdaBoost(cfg AdaBoostConfig) *AdaBoost {
	if cfg.NumEstimators <= 0 {
		cfg.NumEstimators = 50
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 1
	}
	if cfg.TreeMaxDepth <= 0 {
		cfg.TreeMaxDepth = 3
	}
	if cfg.TreeMinSamplesSplit <= 0 {
		cfg.TreeMinSamplesSplit = 2
	}
	return &AdaBoost{cfg: cfg}
}

// Fit trains the boosted ensemble. Thin adapter: validate once, transpose
// once, then the frame-native stage loop.
func (a *AdaBoost) Fit(x [][]float64, y []int) error {
	if _, err := ml.ValidateTrainingSet(x, y); err != nil {
		return err
	}
	return a.fitFrame(ml.FrameOf(x), y, nil)
}

// FitFrame trains on the frame rows listed in rows (nil = all), with y
// holding one label per frame row (nil = fr.Labels()). Every boosting
// round refits the base tree over the same frame with new weights — no
// per-round matrix copies.
func (a *AdaBoost) FitFrame(fr *frame.Frame, y []int, rows []int) error {
	y, err := ml.ValidateFrame(fr, y, rows)
	if err != nil {
		return err
	}
	return a.fitFrame(fr, y, rows)
}

func (a *AdaBoost) fitFrame(fr *frame.Frame, y []int, rows []int) error {
	if rows == nil {
		rows = make([]int, fr.Rows())
		for i := range rows {
			rows[i] = i
		}
	}
	n := len(rows)
	ty := make([]int, n)
	for p, i := range rows {
		ty[p] = y[i]
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	a.stages = a.stages[:0]
	a.alphas = a.alphas[:0]

	// Histogram base trees: quantize the training rows once; every stage
	// refits over the shared read-only code slab with fresh weights. The
	// exact splitters share one ranking of the training rows across
	// stages (nil for the random splitter).
	tcfg := tree.Config{
		MaxDepth:        a.cfg.TreeMaxDepth,
		MinSamplesSplit: a.cfg.TreeMinSamplesSplit,
		Criterion:       a.cfg.TreeCriterion,
		Splitter:        a.cfg.TreeSplitter,
		Bins:            a.cfg.TreeBins,
	}
	var bn *frame.Binned
	var rk *tree.Ranks
	if a.cfg.TreeSplitter == tree.Hist {
		bn = frame.BinFrame(fr, a.cfg.TreeBins, rows)
	} else {
		rk = tree.RankFrame(fr, rows, tcfg)
	}

	// Each stage's prediction pass over the n samples is embarrassingly
	// parallel: fixed-size chunks write disjoint ranges of probs by
	// index, so the buffer's contents — and the strictly serial weight
	// update that consumes it — are identical at any pool width.
	probs := make([]float64, n)
	cols := fr.Cols(nil)
	const predChunk = 512
	nChunks := (n + predChunk - 1) / predChunk
	predictStage := func(t *tree.Tree) {
		_ = parallel.ForEach(nChunks, func(c int) error {
			lo := c * predChunk
			hi := min(lo+predChunk, n)
			clear(probs[lo:hi])
			t.AccumProba(cols, rows[lo:hi], probs[lo:hi])
			return nil
		})
	}

boosting:
	for stage := 0; stage < a.cfg.NumEstimators; stage++ {
		cfg := tcfg
		cfg.Seed = a.cfg.Seed + int64(stage)*6151
		t := tree.New(cfg)
		var err error
		if bn != nil {
			err = t.FitBinnedSamples(bn, rows, ty, w)
		} else {
			err = t.FitRankedSamples(fr, rk, rows, ty, w)
		}
		if err != nil {
			return fmt.Errorf("boost: stage %d: %w", stage, err)
		}
		predictStage(t)

		switch a.cfg.Variant {
		case SAMMER:
			// SAMME.R: weight update from log-probabilities; every stage
			// has implicit weight 1.
			a.stages = append(a.stages, t)
			a.alphas = append(a.alphas, 1)
			sum := 0.0
			for i := 0; i < n; i++ {
				p := clampProb(probs[i])
				// h(x) = ½·log(p/(1−p)); margin update uses y ∈ {−1,+1}.
				yi := 2*float64(ty[i]) - 1
				h := 0.5 * math.Log(p/(1-p))
				w[i] *= math.Exp(-a.cfg.LearningRate * yi * h)
				sum += w[i]
			}
			if sum <= 0 {
				return nil
			}
			for i := range w {
				w[i] /= sum
			}
		default:
			// SAMME (discrete).
			errRate := 0.0
			for i := 0; i < n; i++ {
				if (probs[i] >= 0.5) != (ty[i] == 1) {
					errRate += w[i]
				}
			}
			if errRate <= 0 {
				// Perfect stage dominates; keep it and stop.
				a.stages = append(a.stages, t)
				a.alphas = append(a.alphas, 10)
				break boosting
			}
			if errRate >= 0.5 {
				// No better than chance: scikit-learn stops here. If this
				// happens on the first stage, keep it so predictions exist.
				if len(a.stages) == 0 {
					a.stages = append(a.stages, t)
					a.alphas = append(a.alphas, 1e-3)
				}
				break boosting
			}
			alpha := a.cfg.LearningRate * math.Log((1-errRate)/errRate)
			a.stages = append(a.stages, t)
			a.alphas = append(a.alphas, alpha)
			sum := 0.0
			for i := 0; i < n; i++ {
				if (probs[i] >= 0.5) != (ty[i] == 1) {
					w[i] *= math.Exp(alpha)
				}
				sum += w[i]
			}
			for i := range w {
				w[i] /= sum
			}
		}
	}
	a.fitted = true
	return nil
}

// score returns the aggregated margin in favor of class 1.
func (a *AdaBoost) score(x []float64) float64 {
	s := 0.0
	switch a.cfg.Variant {
	case SAMMER:
		for _, t := range a.stages {
			p := clampProb(t.PredictProba(x))
			s += 0.5 * math.Log(p/(1-p))
		}
	default:
		for k, t := range a.stages {
			vote := 2*float64(t.Predict(x)) - 1
			s += a.alphas[k] * vote
		}
	}
	return s
}

// PredictProba squashes the ensemble margin through a logistic link.
func (a *AdaBoost) PredictProba(x []float64) float64 {
	if !a.fitted || len(a.stages) == 0 {
		return 0.5
	}
	return sigmoid(2 * a.score(x))
}

// Predict returns 1 for a positive ensemble margin.
func (a *AdaBoost) Predict(x []float64) int {
	if !a.fitted || len(a.stages) == 0 {
		return 0
	}
	if a.score(x) >= 0 {
		return 1
	}
	return 0
}

func clampProb(p float64) float64 {
	const eps = 1e-9
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}
