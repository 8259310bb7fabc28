// Package forest implements random forests (Breiman 2001): bootstrap
// aggregation of CART trees with per-split feature subsampling, feature
// importances (used by the monitorless filter step and Table 4), class
// weighting, and an adjustable decision threshold (the paper sets 0.4 to
// bias the classifier against false negatives, §4).
package forest

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"monitorless/internal/frame"
	"monitorless/internal/ml"
	"monitorless/internal/ml/tree"
	"monitorless/internal/parallel"
)

// Config holds the forest hyper-parameters, mirroring the axes of the
// paper's Table 2 grid (n_estimators, min_samples_leaf, min_samples_split,
// criterion, class_weight).
type Config struct {
	// NumTrees is the ensemble size (paper: 250 after tuning).
	NumTrees int
	// MaxDepth bounds each tree; 0 = unlimited.
	MaxDepth int
	// MinSamplesSplit / MinSamplesLeaf are CART stopping rules
	// (paper: 20 samples per leaf after tuning).
	MinSamplesSplit int
	MinSamplesLeaf  int
	// Criterion is gini or entropy (paper: information gain = entropy).
	Criterion tree.Criterion
	// MaxFeatures per split; -1 = √d (default), 0 = all.
	MaxFeatures int
	// ClassWeight is "", "balanced" or "subsample" (Table 2).
	ClassWeight string
	// Threshold is the P(saturated) cut-off for Predict (paper: 0.4).
	// Zero selects 0.5.
	Threshold float64
	// Splitter selects the per-tree split search: tree.Best (the exact
	// sorted-scan parity reference, the zero value) or tree.Hist (the
	// histogram path — the training frame is quantized once and shared
	// read-only by every tree). Those are the two a forest supports:
	// FitFrame refuses anything else (tree.Random is AdaBoost's axis in
	// Table 2, not the forest's). Absent in old gob bundles, which
	// therefore decode to Best.
	Splitter tree.Splitter
	// Bins caps per-column bins for the Hist splitter; 0 = 256.
	Bins int
	// Seed makes training deterministic.
	Seed int64
	// Parallelism bounds the number of concurrently fitted trees;
	// 0 = the parallel pool's default width (GOMAXPROCS or the
	// -parallel flag override).
	Parallelism int
}

// Forest is a fitted random forest.
type Forest struct {
	cfg         Config
	trees       []*tree.Tree
	importances []float64
	nFeatures   int
	fitted      bool

	// quant is the compiled quantized predictor the histogram fit builds
	// from its training bin edges (nil for exact-splitter forests). When
	// present, every batch prediction walks it. Its edges serialize with
	// the forest (bundle v4) and are recompiled on load.
	quant *QuantForest
}

var _ ml.Classifier = (*Forest)(nil)
var _ ml.FeatureImporter = (*Forest)(nil)
var _ ml.FrameFitter = (*Forest)(nil)
var _ ml.FramePredictor = (*Forest)(nil)

// New returns an unfitted forest.
func New(cfg Config) *Forest {
	if cfg.NumTrees <= 0 {
		cfg.NumTrees = 100
	}
	if cfg.MaxFeatures == 0 {
		cfg.MaxFeatures = -1 // √d, the standard forest default
	} else if cfg.MaxFeatures == -2 {
		cfg.MaxFeatures = 0 // explicit "all features"
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = 0.5
	}
	return &Forest{cfg: cfg}
}

// Fit trains the forest on x, y. It is a thin adapter over the columnar
// path: validate once, transpose once, then FitFrame over the whole frame.
func (f *Forest) Fit(x [][]float64, y []int) error {
	if _, err := ml.ValidateTrainingSet(x, y); err != nil {
		return err
	}
	return f.fitFrame(ml.FrameOf(x), y, nil)
}

// FitFrame trains the forest on the frame rows listed in rows (nil = all
// rows), with y holding one label per frame row (nil = fr.Labels()). The
// frame is shared read-only across all tree-fitting goroutines; every
// bootstrap resample is an index array, never a copied matrix.
func (f *Forest) FitFrame(fr *frame.Frame, y []int, rows []int) error {
	y, err := ml.ValidateFrame(fr, y, rows)
	if err != nil {
		return err
	}
	return f.fitFrame(fr, y, rows)
}

// fitFrame is the shared post-validation fitting path.
func (f *Forest) fitFrame(fr *frame.Frame, y []int, rows []int) error {
	if f.cfg.Splitter != tree.Best && f.cfg.Splitter != tree.Hist {
		return fmt.Errorf("forest: splitter %v is not supported (want %v or %v)", f.cfg.Splitter, tree.Best, tree.Hist)
	}
	if rows == nil {
		rows = make([]int, fr.Rows())
		for i := range rows {
			rows[i] = i
		}
	}
	// ty is the compact label vector of the training subset, matching what
	// the row-oriented path called y.
	ty := make([]int, len(rows))
	for p, i := range rows {
		ty[p] = y[i]
	}
	baseW, err := ml.ClassWeights(ty, f.cfg.ClassWeight)
	if err != nil {
		return fmt.Errorf("forest: %w", err)
	}

	n := len(rows)
	f.nFeatures = fr.NumCols()
	f.trees = make([]*tree.Tree, f.cfg.NumTrees)

	// Histogram path: quantize the frame exactly once (edges from the
	// training rows, codes for all rows) and share the read-only code
	// slab across every bootstrap resample.
	//
	// Exact path: when the trees offer every feature at every node the training rows are ranked once and the
	// ranks shared the same way (rk is nil otherwise). The trees' Splitter
	// stays zero: the forest picks their fit entry point itself, and the
	// tree config is part of a saved bundle's bytes.
	tcfg := tree.Config{
		MaxDepth:        f.cfg.MaxDepth,
		MinSamplesSplit: f.cfg.MinSamplesSplit,
		MinSamplesLeaf:  f.cfg.MinSamplesLeaf,
		Criterion:       f.cfg.Criterion,
		MaxFeatures:     f.cfg.MaxFeatures,
		Bins:            f.cfg.Bins,
	}
	var bn *frame.Binned
	var rk *tree.Ranks
	if f.cfg.Splitter == tree.Hist {
		bn = frame.BinFrame(fr, f.cfg.Bins, rows)
	} else {
		rk = tree.RankFrame(fr, rows, tcfg)
	}

	// Each tree's bootstrap RNG and tree seed are pure functions of the
	// tree index, and the deterministic pool writes results by index, so
	// the fitted forest is byte-identical at any Parallelism/GOMAXPROCS.
	err = parallel.Do(context.Background(), f.cfg.Parallelism, f.cfg.NumTrees, func(ti int) error {
		rng := rand.New(rand.NewSource(f.cfg.Seed + int64(ti)*7919))
		// Bootstrap sample with replacement: smp maps bootstrap
		// sample -> frame row.
		smp := make([]int, n)
		by := make([]int, n)
		bw := make([]float64, n)
		var n1 int
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			smp[i] = rows[j]
			by[i] = ty[j]
			bw[i] = baseW[j]
			n1 += by[i]
		}
		if f.cfg.ClassWeight == "subsample" {
			// Re-balance inside the bootstrap sample
			// (scikit-learn's class_weight="balanced_subsample").
			n0 := n - n1
			if n0 > 0 && n1 > 0 {
				w0 := float64(n) / (2 * float64(n0))
				w1 := float64(n) / (2 * float64(n1))
				for i := range bw {
					if by[i] == 1 {
						bw[i] = w1
					} else {
						bw[i] = w0
					}
				}
			}
		}

		cfg := tcfg
		cfg.Seed = f.cfg.Seed + int64(ti)*104729
		t := tree.New(cfg)
		var ferr error
		if bn != nil {
			ferr = t.FitBinnedSamples(bn, smp, by, bw)
		} else {
			ferr = t.FitRankedSamples(fr, rk, smp, by, bw)
		}
		if ferr != nil {
			return fmt.Errorf("forest: tree %d: %w", ti, ferr)
		}
		f.trees[ti] = t
		return nil
	})
	if err != nil {
		return err
	}

	// Average tree importances.
	f.importances = make([]float64, f.nFeatures)
	for _, t := range f.trees {
		for i, v := range t.FeatureImportances() {
			f.importances[i] += v
		}
	}
	sum := 0.0
	for _, v := range f.importances {
		sum += v
	}
	if sum > 0 {
		for i := range f.importances {
			f.importances[i] /= sum
		}
	}
	f.fitted = true
	if bn != nil {
		// Histogram thresholds are exact bin-edge values, so compiling
		// against the training edges lowers every node to a uint8 code
		// compare — batch prediction walks the packed form from here on,
		// bit-identical to the float walk. A forest too wide or too deep
		// for the packed word (see Compile) keeps the float walk instead.
		if err := f.CompileQuant(bn.Edges()); err != nil {
			f.quant = nil
		}
	}
	return nil
}

// CompileQuant compiles the fitted forest against the given per-feature
// bin edges and installs the result: every later batch prediction walks
// the packed form. The histogram fit calls this with its training edges
// and the bundle loader with the stored ones; on error (see Compile) the
// forest is left as it was.
func (f *Forest) CompileQuant(edges [][]float64) error {
	q, err := Compile(f, edges)
	if err != nil {
		return err
	}
	f.quant = q
	return nil
}

// Quant returns the compiled quantized predictor, or nil when the
// forest has not been compiled (exact-splitter fit, v3 bundle).
func (f *Forest) Quant() *QuantForest { return f.quant }

// DropQuant discards the compiled quantized form and its edges; the
// forest predicts through the float walk and serializes as a v3 bundle.
// A copy with the form dropped (ref := *f; ref.DropQuant()) is the float
// reference for the compiled walk.
func (f *Forest) DropQuant() { f.quant = nil }

// PredictProba returns the mean leaf probability across trees.
func (f *Forest) PredictProba(x []float64) float64 {
	if !f.fitted {
		return 0.5
	}
	s := 0.0
	for _, t := range f.trees {
		s += t.PredictProba(x)
	}
	return s / float64(len(f.trees))
}

// Predict applies the configured decision threshold.
func (f *Forest) Predict(x []float64) int {
	if f.PredictProba(x) >= f.cfg.Threshold {
		return 1
	}
	return 0
}

// PredictProbaFrameRows returns the mean leaf probability for every
// listed frame row (rows nil = all rows) in one batch: each tree walks a
// whole block of rows before the next tree, so one tree's nodes stay hot
// in cache instead of re-paging the whole ensemble per row. The per-row
// additions happen in the same tree order as PredictProba's loop, so the
// result is bit-identical to calling PredictProba row by row.
func (f *Forest) PredictProbaFrameRows(fr *frame.Frame, rows []int) []float64 {
	return f.PredictProbaFrameRowsInto(fr, rows, nil)
}

// PredictProbaFrameRowsInto is PredictProbaFrameRows with a caller-owned
// output buffer: dst is reused when its capacity suffices, so
// steady-state batch prediction over a dense frame allocates nothing.
//
// It is the one place a frame becomes column blocks, for both walks.
func (f *Forest) PredictProbaFrameRowsInto(fr *frame.Frame, rows []int, dst []float64) []float64 {
	n := fr.Rows()
	if rows != nil {
		n = len(rows)
	}
	out := f.zeroed(n, dst)
	if !f.fitted {
		return out
	}
	f.accumFrame(fr, rows, out)
	f.mean(out)
	return out
}

// PredictProbaColsInto scores the first n rows of the column-major batch
// cols (cols[j][k] = feature j of row k) into dst, reused when its
// capacity suffices — the float route of the online engine, which holds
// its engineered batch as columns. A compiled forest walks the packed
// form here too.
func (f *Forest) PredictProbaColsInto(cols [][]float64, n int, dst []float64) []float64 {
	out := f.zeroed(n, dst)
	if f.fitted {
		f.accumCols(cols, nil, out)
		f.mean(out)
	}
	return out
}

// zeroed sizes dst to n rows: zeros for a fitted forest to accumulate
// into, the uninformed 0.5 for an unfitted one.
func (f *Forest) zeroed(n int, dst []float64) []float64 {
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	out := dst[:n]
	fill := 0.0
	if !f.fitted {
		fill = 0.5
	}
	for i := range out {
		out[i] = fill
	}
	return out
}

// mean turns accumulated tree sums into the ensemble mean.
func (f *Forest) mean(out []float64) {
	nt := float64(len(f.trees))
	for i := range out {
		out[i] /= nt
	}
}

// colHeaders pools the per-call column-header slice accumFrame hands the
// walks, so dense batch prediction stays allocation-free.
var colHeaders = sync.Pool{New: func() any { return new([][]float64) }}

// accumFrame adds the tree sums of the listed rows (nil = all) of a dense
// frame into out.
func (f *Forest) accumFrame(fr *frame.Frame, rows []int, out []float64) {
	hp := colHeaders.Get().(*[][]float64)
	cols := fr.Cols(*hp)
	f.accumCols(cols, rows, out)
	clear(cols)
	*hp = cols[:0]
	colHeaders.Put(hp)
}

// accumCols adds the tree sums of len(out) rows of cols into out (rows
// nil = row p for out[p]) through the forest's one walk: the packed
// kernel when compiled, the float walk otherwise.
func (f *Forest) accumCols(cols [][]float64, rows []int, out []float64) {
	if f.quant != nil {
		f.quant.accumCols(cols, rows, out)
		return
	}
	for _, t := range f.trees {
		t.AccumProba(cols, rows, out)
	}
}

// PredictFrameRows applies the decision threshold to a batch of rows.
func (f *Forest) PredictFrameRows(fr *frame.Frame, rows []int) []int {
	probs := f.PredictProbaFrameRows(fr, rows)
	out := make([]int, len(probs))
	for i, p := range probs {
		if p >= f.cfg.Threshold {
			out[i] = 1
		}
	}
	return out
}

// FeatureImportances returns the tree-averaged impurity importances.
func (f *Forest) FeatureImportances() []float64 {
	out := make([]float64, len(f.importances))
	copy(out, f.importances)
	return out
}

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }

// NumFeatures returns the row width the fitted forest reads.
func (f *Forest) NumFeatures() int { return f.nFeatures }

// Config returns a copy of the forest's hyper-parameters — the
// champion's recipe a lifecycle retrain reuses for its challenger.
func (f *Forest) Config() Config { return f.cfg }

// Retrain is the model-lifecycle retrain entry point: it fits a fresh
// challenger forest with base's hyper-parameters on the listed frame
// rows (nil = all; y nil = fr.Labels()), forcing the histogram splitter —
// the fast path, since a shadow retrain competes with serving for the
// box — and the given seed so repeated retrains are deterministic
// functions of (reservoir contents, seed). The base forest is not
// modified.
func Retrain(base *Forest, fr *frame.Frame, y []int, rows []int, seed int64) (*Forest, error) {
	if base == nil {
		return nil, fmt.Errorf("forest: retrain: nil base forest")
	}
	cfg := base.Config()
	cfg.Splitter = tree.Hist
	cfg.Seed = seed
	nf := New(cfg)
	if err := nf.FitFrame(fr, y, rows); err != nil {
		return nil, fmt.Errorf("forest: retrain: %w", err)
	}
	return nf, nil
}
