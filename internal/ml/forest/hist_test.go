package forest

import (
	"bytes"
	"testing"

	"monitorless/internal/ml/tree"
	"monitorless/internal/parallel"
)

func fitGob(t *testing.T, cfg Config, x [][]float64, y []int, workers int) []byte {
	t.Helper()
	parallel.SetDefaultWorkers(workers)
	defer parallel.SetDefaultWorkers(0)
	f := New(cfg)
	if err := f.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatalf("FitFrame: %v", err)
	}
	b, err := f.GobEncode()
	if err != nil {
		t.Fatalf("gob: %v", err)
	}
	return b
}

// Tree fitting fans out across the deterministic pool; the fitted forest
// must be gob-byte-identical at any worker count, for both the exact and
// the histogram splitter.
func TestForestDeterministicAcrossWorkers(t *testing.T) {
	x, y := noisyBand(600, 6, 0.1, 3)
	for _, sp := range []tree.Splitter{tree.Best, tree.Hist} {
		cfg := Config{NumTrees: 12, MinSamplesLeaf: 3, Splitter: sp, Seed: 9}
		one := fitGob(t, cfg, x, y, 1)
		eight := fitGob(t, cfg, x, y, 8)
		if !bytes.Equal(one, eight) {
			t.Errorf("splitter %v: forest differs between 1 and 8 workers", sp)
		}
		// Parallelism is itself a Config field (so the gob bytes differ);
		// the fitted trees must still predict bit-identically.
		seqCfg := cfg
		seqCfg.Parallelism = 1
		seq := New(seqCfg)
		if err := seq.FitFrame(frameOf(x), y, nil); err != nil {
			t.Fatal(err)
		}
		var pool Forest
		if err := pool.GobDecode(one); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if a, b := pool.PredictProba(x[i]), seq.PredictProba(x[i]); a != b {
				t.Fatalf("splitter %v row %d: pool proba %v, Parallelism=1 proba %v", sp, i, a, b)
			}
		}
	}
}

// The histogram forest is an approximation of the exact forest, not a
// different model: on held-out data the two must agree on nearly every
// prediction.
func TestForestHistCloseToExact(t *testing.T) {
	x, y := noisyBand(900, 6, 0.1, 5)
	tx, ty := noisyBand(400, 6, 0.1, 6)

	fit := func(sp tree.Splitter) *Forest {
		f := New(Config{NumTrees: 25, MinSamplesLeaf: 5, Splitter: sp, Seed: 11})
		if err := f.FitFrame(frameOf(x), y, nil); err != nil {
			t.Fatalf("Fit(%v): %v", sp, err)
		}
		return f
	}
	exact, hist := fit(tree.Best), fit(tree.Hist)

	acc := func(f *Forest) float64 {
		correct := 0
		for i := range tx {
			if f.Predict(tx[i]) == ty[i] {
				correct++
			}
		}
		return float64(correct) / float64(len(tx))
	}
	accE, accH := acc(exact), acc(hist)
	if accH < accE-0.03 {
		t.Errorf("hist accuracy %.3f trails exact %.3f by more than 0.03", accH, accE)
	}

	agree := 0
	for i := range tx {
		if exact.Predict(tx[i]) == hist.Predict(tx[i]) {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(tx)); frac < 0.95 {
		t.Errorf("exact and hist forests agree on %.3f of rows, want >= 0.95", frac)
	}
}

// Batch inference is a pure layout optimization: PredictProbaFrameRows
// must be bit-identical to the per-row PredictProba loop, for both a rows
// subset and the whole frame, and PredictFrameRows must match Predict.
func TestForestBatchPredictBitIdentical(t *testing.T) {
	x, y := noisyBand(500, 5, 0.1, 7)
	f := New(Config{NumTrees: 15, MinSamplesLeaf: 4, Threshold: 0.4, Seed: 2})
	if err := f.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	px, _ := noisyBand(200, 5, 0.1, 8)
	fr := frameOf(px)

	all := f.PredictProbaFrameRows(fr, nil)
	cls := f.PredictFrameRows(fr, nil)
	for i, row := range px {
		if want := f.PredictProba(row); all[i] != want {
			t.Fatalf("row %d: batch proba %v, per-row %v", i, all[i], want)
		}
		if want := f.Predict(row); cls[i] != want {
			t.Fatalf("row %d: batch class %d, per-row %d", i, cls[i], want)
		}
	}

	rows := []int{5, 0, 199, 42, 42, 7}
	sub := f.PredictProbaFrameRows(fr, rows)
	for p, i := range rows {
		if want := f.PredictProba(px[i]); sub[p] != want {
			t.Fatalf("subset pos %d (row %d): %v vs %v", p, i, sub[p], want)
		}
	}
}

func TestForestBatchPredictUnfitted(t *testing.T) {
	f := New(Config{NumTrees: 3})
	fr := frameOf([][]float64{{1, 2}, {3, 4}})
	for _, p := range f.PredictProbaFrameRows(fr, nil) {
		if p != 0.5 {
			t.Fatalf("unfitted batch proba = %v, want 0.5", p)
		}
	}
}
