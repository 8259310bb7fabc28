package experiments

import (
	"math"
	"testing"

	"monitorless/internal/ml"
	"monitorless/internal/ml/cv"
	"monitorless/internal/ml/forest"
	"monitorless/internal/ml/tree"
)

// TestTable2HistExactParity pins the histogram splitter's approximation
// quality on the real pipeline: grouped 5-fold CV of the paper's selected
// random-forest configuration over the engineered Table 2 training
// corpus, exact vs hist (256 bins), must agree on mean F1 and accuracy
// within a small tolerance. The engineered features carry heavy ties
// (saturated counters, rate ratios), which is exactly the regime where
// quantile binning could plausibly distort splits.
func TestTable2HistExactParity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a full context")
	}
	ctx, err := NewContext(parityScale())
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	fr, err := engineeredTrainingFrame(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}

	run := func(sp tree.Splitter) cv.Result {
		factory := func(p map[string]any) (ml.Classifier, error) {
			return forest.New(forest.Config{
				NumTrees:       10,
				MinSamplesLeaf: 20,
				Criterion:      tree.Entropy,
				Splitter:       sp,
				Seed:           ctx.Scale.Seed,
			}), nil
		}
		res, err := cv.CrossValidateFrame(factory, nil, fr, nil, 5)
		if err != nil {
			t.Fatalf("cv(%v): %v", sp, err)
		}
		return res
	}
	exact := run(tree.Best)
	hist := run(tree.Hist)

	const tol = 0.03
	if d := math.Abs(exact.MeanF1 - hist.MeanF1); d > tol {
		t.Errorf("mean F1: exact %.4f, hist %.4f (|Δ| = %.4f > %v)",
			exact.MeanF1, hist.MeanF1, d, tol)
	}
	if d := math.Abs(exact.MeanAccuracy - hist.MeanAccuracy); d > tol {
		t.Errorf("mean accuracy: exact %.4f, hist %.4f (|Δ| = %.4f > %v)",
			exact.MeanAccuracy, hist.MeanAccuracy, d, tol)
	}
	// Both must actually work — agreement between two broken models is
	// not parity.
	if exact.MeanF1 < 0.8 || hist.MeanF1 < 0.8 {
		t.Errorf("mean F1 too low for a meaningful comparison: exact %.4f, hist %.4f",
			exact.MeanF1, hist.MeanF1)
	}
}
