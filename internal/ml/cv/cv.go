// Package cv implements the model selection machinery of §3.4: grouped
// k-fold cross-validation whose folds are whole training *runs* (the paper
// partitions its 25 Table 1 datasets into 20 train / 5 validation sets per
// fold, never splitting a run), and an exhaustive hyper-parameter grid
// search on top of it.
package cv

import (
	"fmt"
	"sort"

	"monitorless/internal/frame"
	"monitorless/internal/ml"
	"monitorless/internal/ml/score"
	"monitorless/internal/parallel"
)

// GroupKFold partitions the distinct values of groups into k folds and
// returns, per fold, the sample indices of the held-out groups. Groups are
// assigned to folds round-robin in sorted group order, which keeps the
// split deterministic.
func GroupKFold(groups []int, k int) ([][]int, error) {
	if k < 2 {
		return nil, fmt.Errorf("cv: need at least 2 folds, got %d", k)
	}
	distinct := map[int]bool{}
	for _, g := range groups {
		distinct[g] = true
	}
	if len(distinct) < k {
		return nil, fmt.Errorf("cv: %d folds requested but only %d groups", k, len(distinct))
	}
	ids := make([]int, 0, len(distinct))
	for g := range distinct {
		ids = append(ids, g)
	}
	sort.Ints(ids)

	foldOf := map[int]int{}
	for i, g := range ids {
		foldOf[g] = i % k
	}
	folds := make([][]int, k)
	for i, g := range groups {
		f := foldOf[g]
		folds[f] = append(folds[f], i)
	}
	return folds, nil
}

// Factory builds a fresh classifier from a parameter assignment.
type Factory func(params map[string]any) (ml.Classifier, error)

// Result summarizes one cross-validated configuration.
type Result struct {
	// Params is the evaluated parameter assignment.
	Params map[string]any
	// MeanF1 and MeanAccuracy average the per-fold validation scores.
	MeanF1, MeanAccuracy float64
	// FoldF1 holds the per-fold F1 scores.
	FoldF1 []float64
}

// CrossValidateFrame fits the factory's model on each training fold and
// scores it on the held-out fold, returning the averaged result. The run
// structure (the groups) comes from the frame's spans, y nil means the
// frame's labels, and each training fold is an index view into the shared
// read-only frame — no fold ever copies the feature matrix. Folds run
// concurrently on the shared worker pool; scores are assembled in
// fold-index order, so the result is bit-identical to the serial
// evaluation regardless of GOMAXPROCS.
func CrossValidateFrame(factory Factory, params map[string]any, fr *frame.Frame, y []int, k int) (Result, error) {
	if y == nil {
		y = fr.Labels()
	}
	if len(y) != fr.Rows() {
		return Result{}, fmt.Errorf("cv: %d labels for %d frame rows", len(y), fr.Rows())
	}
	folds, err := GroupKFold(fr.GroupIDs(), k)
	if err != nil {
		return Result{}, err
	}
	confs, err := parallel.Map(len(folds), func(fi int) (score.Confusion, error) {
		holdout := folds[fi]
		inFold := make([]bool, fr.Rows())
		for _, i := range holdout {
			inFold[i] = true
		}
		trainRows := make([]int, 0, fr.Rows()-len(holdout))
		for i := 0; i < fr.Rows(); i++ {
			if !inFold[i] {
				trainRows = append(trainRows, i)
			}
		}
		clf, err := factory(params)
		if err != nil {
			return score.Confusion{}, fmt.Errorf("cv: factory: %w", err)
		}
		if err := clf.FitFrame(fr, y, trainRows); err != nil {
			return score.Confusion{}, fmt.Errorf("cv: fit: %w", err)
		}
		// Batch holdout scoring: classifiers with a frame-native batch
		// path (the flattened forest) score all held-out rows in one
		// pass, bit-identical to the per-row gather fallback.
		pred := ml.PredictFrameRows(clf, fr, holdout)
		truth := make([]int, len(holdout))
		for j, i := range holdout {
			truth[j] = y[i]
		}
		return score.Count(pred, truth)
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{Params: params}
	for _, c := range confs {
		res.FoldF1 = append(res.FoldF1, c.F1())
		res.MeanF1 += c.F1()
		res.MeanAccuracy += c.Accuracy()
	}
	res.MeanF1 /= float64(len(folds))
	res.MeanAccuracy /= float64(len(folds))
	return res, nil
}

// Grid is a named parameter space: each key maps to its candidate values.
type Grid map[string][]any

// Enumerate expands the grid into every parameter assignment, in a
// deterministic (sorted-key, row-major) order.
func (g Grid) Enumerate() []map[string]any {
	keys := make([]string, 0, len(g))
	for k := range g {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	assignments := []map[string]any{{}}
	for _, key := range keys {
		vals := g[key]
		next := make([]map[string]any, 0, len(assignments)*len(vals))
		for _, base := range assignments {
			for _, v := range vals {
				m := make(map[string]any, len(base)+1)
				for bk, bv := range base {
					m[bk] = bv
				}
				m[key] = v
				next = append(next, m)
			}
		}
		assignments = next
	}
	return assignments
}

// GridSearchFrame cross-validates every grid assignment over the frame
// and returns all results sorted by descending mean F1, best first.
// Candidates run concurrently; the stable sort over the index-ordered
// results keeps the ranking identical to the serial search.
func GridSearchFrame(factory Factory, grid Grid, fr *frame.Frame, y []int, k int) ([]Result, error) {
	assignments := grid.Enumerate()
	if len(assignments) == 0 {
		return nil, fmt.Errorf("cv: empty grid")
	}
	results, err := parallel.Map(len(assignments), func(i int) (Result, error) {
		return CrossValidateFrame(factory, assignments[i], fr, y, k)
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(results, func(i, j int) bool { return results[i].MeanF1 > results[j].MeanF1 })
	return results, nil
}

// Float reads a float parameter with a default.
func Float(params map[string]any, key string, def float64) float64 {
	if v, ok := params[key]; ok {
		switch t := v.(type) {
		case float64:
			return t
		case int:
			return float64(t)
		}
	}
	return def
}

// Int reads an int parameter with a default.
func Int(params map[string]any, key string, def int) int {
	if v, ok := params[key]; ok {
		switch t := v.(type) {
		case int:
			return t
		case float64:
			return int(t)
		}
	}
	return def
}

// Str reads a string parameter with a default.
func Str(params map[string]any, key string, def string) string {
	if v, ok := params[key].(string); ok {
		return v
	}
	return def
}
