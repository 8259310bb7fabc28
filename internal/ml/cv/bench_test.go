package cv

import (
	"testing"

	"monitorless/internal/ml"
	"monitorless/internal/ml/forest"
	"monitorless/internal/ml/tree"
	"monitorless/internal/parallel"
)

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
