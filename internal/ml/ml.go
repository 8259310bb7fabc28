// Package ml defines the shared contract between the from-scratch learners
// (tree, forest, linear, boost, nn) and their consumers (feature pipeline,
// cross-validation, the monitorless core). Everything is stdlib-only.
//
// Training data enters through one of two doors: the columnar frame path
// (FrameFitter, the native representation) or the legacy row-oriented
// [][]float64 path, which is a thin adapter that transposes once and then
// runs the same columnar fit. Data hygiene — NaN/Inf rejection, label and
// shape checks — happens exactly once at whichever door the data enters
// (ValidateTrainingSet or ValidateFrame); internal refits (bootstrap
// resamples, boosting rounds) never re-scan.
package ml

import (
	"errors"
	"fmt"
	"math"

	"monitorless/internal/frame"
)

// Classifier is a binary classifier over dense float feature vectors.
// Labels are 0 (not saturated) and 1 (saturated). Training data must be
// finite: Fit rejects NaN and ±Inf values at the boundary (via
// ValidateTrainingSet), so individual learners never handle non-finite
// values ad hoc.
type Classifier interface {
	// Fit trains the classifier. Implementations must not retain x or y,
	// and must reject non-finite feature values.
	Fit(x [][]float64, y []int) error
	// PredictProba returns the estimated probability of class 1.
	PredictProba(x []float64) float64
	// Predict returns the predicted class label.
	Predict(x []float64) int
}

// FrameFitter is implemented by classifiers with a frame-native fit path.
// It is the preferred training door: no per-row gathering, and fold/run
// subsets are index views instead of copied matrices.
type FrameFitter interface {
	// FitFrame trains on the frame rows listed in rows (nil = all rows).
	// y holds one label per frame row; nil means fr.Labels().
	// Implementations must treat fr as read-only, must not retain fr, y
	// or rows, and must reject non-finite values once (ValidateFrame).
	FitFrame(fr *frame.Frame, y []int, rows []int) error
}

// WeightedFitter is implemented by classifiers that accept per-sample
// weights (used by AdaBoost and by balanced class weighting).
type WeightedFitter interface {
	FitWeighted(x [][]float64, y []int, w []float64) error
}

// FramePredictor is implemented by classifiers with a batch frame-native
// class path (the flattened forest): all listed rows are scored in one
// pass without per-row feature gathering, bit-identical to calling Predict
// row by row.
type FramePredictor interface {
	// PredictFrameRows returns the predicted class of every listed frame
	// row (rows nil = all rows), in rows order.
	PredictFrameRows(fr *frame.Frame, rows []int) []int
}

// FeatureImporter is implemented by models that expose per-feature
// importances (the random forest filter step and Table 4 rely on it).
type FeatureImporter interface {
	// FeatureImportances returns one non-negative weight per input
	// feature, summing to 1 (or all zeros for a degenerate fit).
	FeatureImportances() []float64
}

// ErrNoData is returned when Fit receives an empty training set.
var ErrNoData = errors.New("ml: empty training set")

// ValidateTrainingSet checks the common preconditions shared by all
// learners — shape, binary labels, and finiteness (NaN/Inf rejection) —
// and returns the feature dimensionality. It is the single hygiene gate
// of the row-oriented adapter path; the frame path uses ValidateFrame.
func ValidateTrainingSet(x [][]float64, y []int) (int, error) {
	if len(x) == 0 {
		return 0, ErrNoData
	}
	if len(x) != len(y) {
		return 0, fmt.Errorf("ml: %d samples but %d labels", len(x), len(y))
	}
	d := len(x[0])
	if d == 0 {
		return 0, errors.New("ml: samples have zero features")
	}
	for i, row := range x {
		if len(row) != d {
			return 0, fmt.Errorf("ml: ragged training set: sample %d has %d features, want %d", i, len(row), d)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("ml: non-finite value %v at sample %d, feature %d", v, i, j)
			}
		}
	}
	for i, label := range y {
		if label != 0 && label != 1 {
			return 0, fmt.Errorf("ml: label %d at sample %d is not binary", label, i)
		}
	}
	return d, nil
}

// ValidateFrame is the hygiene gate of the frame-native fit path: it
// resolves y (nil means fr.Labels()), checks shape and binary labels for
// the selected rows, and rejects NaN/Inf once via frame.CheckFinite.
// It returns the resolved label vector (one entry per frame row).
func ValidateFrame(fr *frame.Frame, y []int, rows []int) ([]int, error) {
	if fr == nil || fr.Rows() == 0 {
		return nil, ErrNoData
	}
	if fr.NumCols() == 0 {
		return nil, errors.New("ml: frame has zero features")
	}
	if y == nil {
		y = fr.Labels()
	}
	if len(y) != fr.Rows() {
		return nil, fmt.Errorf("ml: %d labels for %d frame rows", len(y), fr.Rows())
	}
	if rows == nil {
		for i, label := range y {
			if label != 0 && label != 1 {
				return nil, fmt.Errorf("ml: label %d at row %d is not binary", label, i)
			}
		}
	} else {
		if len(rows) == 0 {
			return nil, ErrNoData
		}
		for _, i := range rows {
			if i < 0 || i >= fr.Rows() {
				return nil, fmt.Errorf("ml: training row %d out of range (%d rows)", i, fr.Rows())
			}
			if y[i] != 0 && y[i] != 1 {
				return nil, fmt.Errorf("ml: label %d at row %d is not binary", y[i], i)
			}
		}
	}
	if err := fr.CheckFinite(); err != nil {
		return nil, fmt.Errorf("ml: %w", err)
	}
	return y, nil
}

// FrameOf transposes a row-oriented matrix into an anonymous-schema frame.
// It is the adapter used by the legacy [][]float64 Fit entry points: one
// transpose at the boundary, columnar everywhere after.
func FrameOf(x [][]float64) *frame.Frame {
	d := 0
	if len(x) > 0 {
		d = len(x[0])
	}
	fr := frame.NewDense(make(frame.Schema, d), len(x), nil, nil)
	for j := 0; j < d; j++ {
		col := fr.Col(j)
		for i, row := range x {
			col[i] = row[j]
		}
	}
	return fr
}

// FitFrame trains c on the selected frame rows, using the frame-native
// path when c implements FrameFitter and falling back to a one-shot row
// materialization otherwise (linear and neural learners iterate rows by
// design).
func FitFrame(c Classifier, fr *frame.Frame, y []int, rows []int) error {
	if ff, ok := c.(FrameFitter); ok {
		return ff.FitFrame(fr, y, rows)
	}
	if y == nil {
		y = fr.Labels()
	}
	if rows == nil {
		x := fr.MaterializeRows()
		return c.Fit(x, y)
	}
	sub := fr.SelectRows(rows)
	ty := make([]int, len(rows))
	for p, i := range rows {
		ty[p] = y[i]
	}
	return c.Fit(sub.MaterializeRows(), ty)
}

// PredictFrameRows classifies the listed frame rows (nil = all rows),
// dispatching to the classifier's batch FramePredictor path when
// available and falling back to one reused gather buffer otherwise.
func PredictFrameRows(c Classifier, fr *frame.Frame, rows []int) []int {
	if fp, ok := c.(FramePredictor); ok {
		return fp.PredictFrameRows(fr, rows)
	}
	n := fr.Rows()
	if rows != nil {
		n = len(rows)
	}
	out := make([]int, n)
	buf := make([]float64, fr.NumCols())
	for p := range out {
		i := p
		if rows != nil {
			i = rows[p]
		}
		buf = fr.Row(i, buf)
		out[p] = c.Predict(buf)
	}
	return out
}

// ClassWeights computes per-sample weights. mode is one of:
//   - "": uniform weights,
//   - "balanced": n/(2·n_class) as in scikit-learn,
//
// matching the class_weight axis of the paper's Table 2 grids.
func ClassWeights(y []int, mode string) ([]float64, error) {
	w := make([]float64, len(y))
	switch mode {
	case "", "none", "None":
		for i := range w {
			w[i] = 1
		}
	case "balanced", "subsample":
		// "subsample" differs from "balanced" only inside the forest's
		// bootstrap loop; at the dataset level both start balanced.
		var n1 int
		for _, label := range y {
			n1 += label
		}
		n0 := len(y) - n1
		if n0 == 0 || n1 == 0 {
			for i := range w {
				w[i] = 1
			}
			return w, nil
		}
		w0 := float64(len(y)) / (2 * float64(n0))
		w1 := float64(len(y)) / (2 * float64(n1))
		for i, label := range y {
			if label == 1 {
				w[i] = w1
			} else {
				w[i] = w0
			}
		}
	default:
		return nil, fmt.Errorf("ml: unknown class weight mode %q", mode)
	}
	return w, nil
}
