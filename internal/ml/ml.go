// Package ml defines the shared contract between the from-scratch learners
// (tree, forest, linear, boost, nn) and their consumers (feature pipeline,
// cross-validation, the monitorless core). Everything is stdlib-only.
//
// Training data enters through one door: Classifier.FitFrame, over a
// columnar frame and an optional row subset (a CV fold or a run
// selection is an index list, never a copied matrix). Data hygiene —
// NaN/Inf rejection, label and shape checks — is ValidateFrame, run once
// per FitFrame call over the whole frame; the refits inside one fit
// (bootstrap resamples, boosting rounds) never re-scan. The learners that
// iterate rows by design (linear, nn) take their row-major copy of the
// listed rows from TrainingRows.
package ml

import (
	"errors"
	"fmt"

	"monitorless/internal/frame"
)

// Classifier is a binary classifier over dense float feature vectors.
// Labels are 0 (not saturated) and 1 (saturated).
type Classifier interface {
	// FitFrame trains on the frame rows listed in rows (nil = all rows).
	// y holds one label per frame row; nil means fr.Labels().
	// Implementations must treat fr as read-only, must not retain fr, y
	// or rows, and must reject non-finite values once (ValidateFrame).
	FitFrame(fr *frame.Frame, y []int, rows []int) error
	// PredictProba returns the estimated probability of class 1.
	PredictProba(x []float64) float64
	// Predict returns the predicted class label.
	Predict(x []float64) int
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

// ErrNoData is returned when FitFrame receives an empty training set.
var ErrNoData = errors.New("ml: empty training set")

// ValidateFrame is the hygiene gate of the frame-native fit path: it
// resolves y (nil means fr.Labels()), checks shape and binary labels for
// the selected rows, and rejects NaN/Inf once via frame.CheckFinite.
// It returns the compact labels of the training rows: ty[p] is the label
// of rows[p], or, with rows nil, the resolved y itself (one entry per
// frame row, not a copy).
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
	if rows == nil {
		return y, nil
	}
	ty := make([]int, len(rows))
	for p, i := range rows {
		ty[p] = y[i]
	}
	return ty, nil
}

// TrainingRows is the fit door of the learners that iterate rows by
// design (linear, nn): it runs ValidateFrame, then gathers the listed
// rows (nil = all) once, straight into row-major slices over one backing
// array, and returns them with ValidateFrame's compact labels.
func TrainingRows(fr *frame.Frame, y []int, rows []int) (x [][]float64, ty []int, err error) {
	ty, err = ValidateFrame(fr, y, rows)
	if err != nil {
		return nil, nil, err
	}
	if rows == nil {
		return fr.MaterializeRows(), ty, nil
	}
	d := fr.NumCols()
	flat := make([]float64, len(rows)*d)
	x = make([][]float64, len(rows))
	for p := range rows {
		x[p] = flat[p*d : (p+1)*d : (p+1)*d]
	}
	for j := 0; j < d; j++ {
		col := fr.Col(j)
		for p, i := range rows {
			x[p][j] = col[i]
		}
	}
	return x, ty, nil
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
