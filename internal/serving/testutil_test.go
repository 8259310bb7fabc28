package serving

import (
	"sync"
	"testing"

	"monitorless/internal/core"
	"monitorless/internal/dataset"
	"monitorless/internal/features"
	"monitorless/internal/frame"
	"monitorless/internal/ml/forest"
	"monitorless/internal/ml/tree"
)

var (
	testOnce  sync.Once
	testModel *core.Model
	testData  *dataset.Dataset
	testErr   error
)

// sharedTestModel trains (once per test binary) a compact model on a few
// Table 1 runs covering CPU, memory-thrash and host-level bottlenecks —
// the same subset the core package tests use.
func sharedTestModel(tb testing.TB) (*core.Model, *dataset.Dataset) {
	tb.Helper()
	testOnce.Do(func() {
		all := dataset.Table1()
		var cfgs []dataset.RunConfig
		for _, c := range all {
			switch c.ID {
			case 1, 6, 8, 10, 22, 23:
				cfgs = append(cfgs, c)
			}
		}
		rep, err := dataset.Generate(cfgs, dataset.GenOptions{Duration: 350, RampSeconds: 250, Seed: 3})
		if err != nil {
			testErr = err
			return
		}
		testData = rep.Dataset
		testModel, testErr = core.Train(testData, core.TrainConfig{
			Pipeline: features.Config{
				Normalize:    true,
				Reduce1:      features.ReduceFilter,
				TimeFeatures: true,
				Products:     true,
				Reduce2:      features.ReduceFilter,
				FilterTopK:   30,
				FilterTrees:  20,
				Seed:         7,
			},
			Forest: forest.Config{
				NumTrees:       30,
				MinSamplesLeaf: 10,
				Criterion:      tree.Entropy,
				Seed:           7,
			},
			Threshold: 0.4,
		})
	})
	if testErr != nil {
		tb.Fatalf("shared test model: %v", testErr)
	}
	return testModel, testData
}

// evalRun is one span of a raw frame: its run ID and its rows in time
// order.
type evalRun struct {
	ID   int
	Rows [][]float64
}

// runsOf splits a raw frame into its runs, the per-instance histories the
// streaming tests replay tick by tick.
func runsOf(fr *frame.Frame) []evalRun {
	out := make([]evalRun, fr.NumRuns())
	for k, sp := range fr.Spans() {
		out[k] = evalRun{ID: sp.ID, Rows: fr.RunView(k).MaterializeRows()}
	}
	return out
}

// newTestService wraps the shared model in a service with the given
// debounce shape.
func newTestService(t *testing.T, k, n int) *Service {
	t.Helper()
	m, _ := sharedTestModel(t)
	svc, err := New(Config{Model: m, DebounceK: k, DebounceN: n})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return svc
}
