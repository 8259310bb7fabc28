package cv

import (
	"math/rand"
	"testing"

	"monitorless/internal/frame"
	"monitorless/internal/ml"
	"monitorless/internal/ml/forest"
	"monitorless/internal/ml/tree"
	"monitorless/internal/parallel"
)

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
				fr.Col(j)[i] = v
				if j == 0 && v > synthCut {
					labels[i] = 1
				}
			}
		}
	}
	return fr
}

// benchFactory pins the forest's internal tree parallelism to 1 so the
// serial/pool comparison below measures the fold-level fan-out alone —
// otherwise the "serial" baseline would already saturate the cores
// through the forest.
func benchFactory(seed int64) Factory {
	return func(params map[string]any) (ml.Classifier, error) {
		return forest.New(forest.Config{
			NumTrees:       Int(params, "n_estimators", 20),
			MinSamplesLeaf: 2,
			Criterion:      tree.Entropy,
			Seed:           seed,
			Parallelism:    1,
		}), nil
	}
}

// BenchmarkCrossValidateParallel compares grouped 5-fold CV with the
// fold pool disabled (workers=1, the old serial path) and enabled
// (workers=GOMAXPROCS). On a multi-core machine the pool variant
// approaches a GOMAXPROCS-fold speedup; on one core the two are
// equivalent modulo pool overhead.
func BenchmarkCrossValidateParallel(b *testing.B) {
	fr := synthFrame(10, 60, 12, 3)
	run := func(b *testing.B, workers int) {
		parallel.SetDefaultWorkers(workers)
		defer parallel.SetDefaultWorkers(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := CrossValidateFrame(benchFactory(7), nil, fr, nil, 5); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("pool", func(b *testing.B) { run(b, 0) })
}
