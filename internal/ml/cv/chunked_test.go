package cv

import (
	"math/rand"
	"reflect"
	"testing"

	"monitorless/internal/frame"
	"monitorless/internal/ml"
	"monitorless/internal/ml/forest"
	"monitorless/internal/ml/tree"
)

func histForestFactory(seed int64) Factory {
	return func(params map[string]any) (ml.Classifier, error) {
		return forest.New(forest.Config{
			NumTrees:       Int(params, "n_estimators", 10),
			MinSamplesLeaf: 2,
			Criterion:      tree.Entropy,
			Splitter:       tree.Hist,
			Seed:           seed,
		}), nil
	}
}

// synthCut is the column-0 value above which synthFrame labels a row 1.
const synthCut = 0.55

// synthFrame builds a deterministic labeled frame whose spans are the CV
// groups, with a learnable signal in column 0.
func synthFrame(groups, rowsPerGroup, d int, seed int64) *frame.Frame {
	rng := rand.New(rand.NewSource(seed))
	rows := groups * rowsPerGroup
	schema := make(frame.Schema, d)
	for j := range schema {
		schema[j] = frame.Col{Name: "c" + string(rune('a'+j))}
	}
	spans := make([]frame.Span, groups)
	labels := make([]int, rows)
	fr := frame.NewDense(schema, rows, spans, labels)
	for gi := 0; gi < groups; gi++ {
		spans[gi] = frame.Span{ID: gi + 1, Start: gi * rowsPerGroup, End: (gi + 1) * rowsPerGroup}
		for r := 0; r < rowsPerGroup; r++ {
			i := gi*rowsPerGroup + r
			for j := 0; j < d; j++ {
				v := rng.Float64()
				fr.Set(i, j, v)
				if j == 0 && v > synthCut {
					labels[i] = 1
				}
			}
		}
	}
	return fr
}

// TestCrossValidateFrameChunkedMatchesDense is the training-layer half of
// the out-of-core contract: grouped CV over a chunk-backed frame must
// return bit-identical fold scores to the dense frame it was copied from.
// The forest factory exercises both the hist fit (BinFrame streams chunks)
// and the batch frame predictor on holdout rows.
func TestCrossValidateFrameChunkedMatchesDense(t *testing.T) {
	dense := synthFrame(6, 50, 5, 23)
	chunked, err := frame.Rechunk(dense, 64, t.TempDir())
	if err != nil {
		t.Fatalf("Rechunk: %v", err)
	}
	defer chunked.Close()
	if !chunked.Chunked() {
		t.Fatal("Rechunk returned a dense frame")
	}

	params := map[string]any{"n_estimators": 8}
	for name, factory := range map[string]Factory{
		"exact": forestFactory(5),     // chunked fit densifies via Materialize
		"hist":  histForestFactory(5), // chunked fit streams through BinFrame
	} {
		want, err := CrossValidateFrame(factory, params, dense, nil, 3)
		if err != nil {
			t.Fatalf("%s: dense CrossValidateFrame: %v", name, err)
		}
		got, err := CrossValidateFrame(factory, params, chunked, nil, 3)
		if err != nil {
			t.Fatalf("%s: chunked CrossValidateFrame: %v", name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: chunked CV differs from dense:\n dense:   %+v\n chunked: %+v", name, want, got)
		}
	}
}
