package cv

import (
	"fmt"
	"testing"

	"monitorless/internal/frame"
	"monitorless/internal/ml"
)

// thresholdClassifier predicts 1 when x[0] exceeds its parameterized
// threshold; useful for verifying that grid search recovers the best value.
type thresholdClassifier struct{ thr float64 }

func (c *thresholdClassifier) FitFrame(fr *frame.Frame, y []int, rows []int) error { return nil }
func (c *thresholdClassifier) PredictProba(x []float64) float64 {
	if x[0] > c.thr {
		return 1
	}
	return 0
}
func (c *thresholdClassifier) Predict(x []float64) int {
	if x[0] > c.thr {
		return 1
	}
	return 0
}

func TestGroupKFoldPartition(t *testing.T) {
	groups := synthFrame(10, 7, 1, 1).GroupIDs()
	folds, err := GroupKFold(groups, 5)
	if err != nil {
		t.Fatalf("GroupKFold: %v", err)
	}
	if len(folds) != 5 {
		t.Fatalf("got %d folds, want 5", len(folds))
	}
	seen := map[int]int{}
	total := 0
	for f, idxs := range folds {
		groupsInFold := map[int]bool{}
		for _, i := range idxs {
			seen[i]++
			total++
			groupsInFold[groups[i]] = true
		}
		// No group may appear in more than one fold.
		for g := range groupsInFold {
			for f2, idxs2 := range folds {
				if f2 == f {
					continue
				}
				for _, i2 := range idxs2 {
					if groups[i2] == g {
						t.Fatalf("group %d appears in folds %d and %d", g, f, f2)
					}
				}
			}
		}
	}
	if total != 70 {
		t.Errorf("folds cover %d samples, want 70", total)
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("sample %d appears %d times", i, n)
		}
	}
}

func TestGroupKFoldErrors(t *testing.T) {
	if _, err := GroupKFold([]int{1, 1, 2}, 1); err == nil {
		t.Error("expected error for k < 2")
	}
	if _, err := GroupKFold([]int{1, 1, 2}, 5); err == nil {
		t.Error("expected error for more folds than groups")
	}
}

func TestGroupKFoldDeterministic(t *testing.T) {
	groups := synthFrame(8, 3, 1, 2).GroupIDs()
	f1, err := GroupKFold(groups, 4)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := GroupKFold(groups, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f1 {
		if len(f1[i]) != len(f2[i]) {
			t.Fatal("GroupKFold is not deterministic")
		}
		for j := range f1[i] {
			if f1[i][j] != f2[i][j] {
				t.Fatal("GroupKFold is not deterministic")
			}
		}
	}
}

func TestCrossValidateScoresPerfectModel(t *testing.T) {
	fr := synthFrame(10, 20, 1, 3)
	factory := func(params map[string]any) (ml.Classifier, error) {
		return &thresholdClassifier{thr: Float(params, "thr", synthCut)}, nil
	}
	res, err := CrossValidateFrame(factory, map[string]any{"thr": synthCut}, fr, nil, 5)
	if err != nil {
		t.Fatalf("CrossValidateFrame: %v", err)
	}
	if res.MeanF1 < 0.99 {
		t.Errorf("MeanF1 = %v, want ~1 for the true threshold", res.MeanF1)
	}
	if len(res.FoldF1) != 5 {
		t.Errorf("FoldF1 has %d entries, want 5", len(res.FoldF1))
	}
}

func TestGridSearchRecoversBestParam(t *testing.T) {
	fr := synthFrame(10, 30, 1, 4)
	factory := func(params map[string]any) (ml.Classifier, error) {
		return &thresholdClassifier{thr: Float(params, "thr", 0)}, nil
	}
	grid := Grid{"thr": {0.15, 0.35, synthCut, 0.75, 0.95}}
	results, err := GridSearchFrame(factory, grid, fr, nil, 5)
	if err != nil {
		t.Fatalf("GridSearchFrame: %v", err)
	}
	if len(results) != 5 {
		t.Fatalf("got %d results, want 5", len(results))
	}
	if best := Float(results[0].Params, "thr", -1); best != synthCut {
		t.Errorf("best thr = %v, want %v", best, synthCut)
	}
	for i := 1; i < len(results); i++ {
		if results[i].MeanF1 > results[i-1].MeanF1 {
			t.Fatal("results not sorted by descending F1")
		}
	}
}

func TestGridEnumerate(t *testing.T) {
	g := Grid{"a": {1, 2}, "b": {"x", "y", "z"}}
	got := g.Enumerate()
	if len(got) != 6 {
		t.Fatalf("enumerated %d assignments, want 6", len(got))
	}
	seen := map[string]bool{}
	for _, p := range got {
		key := fmt.Sprintf("%v-%v", p["a"], p["b"])
		if seen[key] {
			t.Fatalf("duplicate assignment %s", key)
		}
		seen[key] = true
	}
}

func TestGridSearchEmptyGrid(t *testing.T) {
	// An empty grid has exactly one (empty) assignment — it must still run.
	fr := synthFrame(4, 5, 1, 5)
	factory := func(params map[string]any) (ml.Classifier, error) {
		return &thresholdClassifier{thr: synthCut}, nil
	}
	results, err := GridSearchFrame(factory, Grid{}, fr, nil, 2)
	if err != nil {
		t.Fatalf("GridSearchFrame: %v", err)
	}
	if len(results) != 1 {
		t.Errorf("got %d results, want 1", len(results))
	}
}

func TestGridSearchFactoryError(t *testing.T) {
	fr := synthFrame(4, 5, 1, 6)
	factory := func(params map[string]any) (ml.Classifier, error) {
		return nil, fmt.Errorf("nope")
	}
	if _, err := GridSearchFrame(factory, Grid{}, fr, nil, 2); err == nil {
		t.Error("expected factory error to propagate")
	}
}

func TestParamHelpers(t *testing.T) {
	p := map[string]any{"f": 1.5, "i": 3, "s": "hi", "fi": 2.0}
	if Float(p, "f", 0) != 1.5 {
		t.Error("Float failed")
	}
	if Float(p, "i", 0) != 3 {
		t.Error("Float should coerce ints")
	}
	if Float(p, "missing", 9) != 9 {
		t.Error("Float default failed")
	}
	if Int(p, "i", 0) != 3 {
		t.Error("Int failed")
	}
	if Int(p, "fi", 0) != 2 {
		t.Error("Int should coerce floats")
	}
	if Int(p, "missing", 7) != 7 {
		t.Error("Int default failed")
	}
	if Str(p, "s", "") != "hi" {
		t.Error("Str failed")
	}
	if Str(p, "missing", "d") != "d" {
		t.Error("Str default failed")
	}
}
