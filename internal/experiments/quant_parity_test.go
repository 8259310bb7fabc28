package experiments

import (
	"math"
	"testing"

	"monitorless/internal/ml/forest"
	"monitorless/internal/ml/tree"
)

// TestTable2QuantBitIdentity is the acceptance golden for the compiled
// quantized predictor: on the engineered Table 2 training corpus — the
// heavy-tie, saturated-counter regime the paper's features produce — a
// histogram-trained forest's quantized batch predictions must be
// bit-identical to the float tree walk, at block-level parallelism 1, 4
// and 8 alike. This is the end-to-end pin that the uint8-code traversal
// is an exact reformulation on real pipeline output, not merely on
// synthetic unit-test columns.
func TestTable2QuantBitIdentity(t *testing.T) {
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

	f := forest.New(forest.Config{
		NumTrees:       10,
		MinSamplesLeaf: 20,
		Criterion:      tree.Entropy,
		Splitter:       tree.Hist,
		Seed:           ctx.Scale.Seed,
	})
	if err := f.FitFrame(fr, nil, nil); err != nil {
		t.Fatalf("fit: %v", err)
	}
	q := f.Quant()
	if q == nil {
		t.Fatal("hist fit did not install a quantized predictor")
	}

	ref := *f
	ref.DropQuant()
	want := ref.PredictProbaFrameRows(fr, nil)

	for _, workers := range []int{1, 4, 8} {
		q.SetParallelism(workers)
		got := f.PredictProbaFrameRows(fr, nil)
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("workers=%d row %d: quant %v (%#x) vs float %v (%#x)",
					workers, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	q.SetParallelism(0)

	// The walk must also agree with the per-row reference on a sample of
	// rows — the serving plane's single-vector path.
	var row []float64
	for i := 0; i < fr.Rows(); i += 997 {
		row = fr.Row(i, row)
		if p := f.PredictProba(row); math.Float64bits(p) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: per-row %v vs batch %v", i, p, want[i])
		}
	}
}
