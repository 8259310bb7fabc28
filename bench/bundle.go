package main

import (
	"bytes"
	"fmt"

	"monitorless/internal/core"
	"monitorless/internal/dataset"
	"monitorless/internal/experiments"
	"monitorless/internal/features"
	"monitorless/internal/ml/forest"
	"monitorless/internal/ml/tree"
)

// histBins is the per-column bin cap of the paper-layout forests
// (tree.Hist, 128 bins); the lean recipe keeps the default 256.
const histBins = 128

// table1Runs selects Table 1 rows by ID, in table order.
func table1Runs(ids []int) []dataset.RunConfig {
	want := make(map[int]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	var out []dataset.RunConfig
	for _, c := range dataset.Table1() {
		if want[c.ID] {
			out = append(out, c)
		}
	}
	return out
}

// paperTrainConfig is the paper layout (experiments.Small's pipeline:
// normalize, filter, time windows, products, filter) with a
// histogram-trained forest of the given size.
func paperTrainConfig(trees int, seed int64) core.TrainConfig {
	sc := experiments.Small()
	sc.Splitter = tree.Hist
	sc.Bins = histBins
	sc.Trees = trees
	sc.Seed = seed
	return sc.TrainConfig()
}

// leanTrainConfig is the cmd/loadgen recipe: normalize + top-16 filter,
// no time windows, a small hist forest.
func leanTrainConfig(trees int, seed int64) core.TrainConfig {
	return core.TrainConfig{
		Pipeline: features.Config{
			Normalize:   true,
			Reduce1:     features.ReduceFilter,
			FilterTopK:  16,
			FilterTrees: 10,
			Seed:        seed,
		},
		Forest: forest.Config{
			NumTrees:       trees,
			MinSamplesLeaf: 20,
			Criterion:      tree.Entropy,
			Splitter:       tree.Hist,
			Seed:           seed,
		},
		Threshold: 0.4,
	}
}

// trainBundle fits the workload's serving bundle and returns its bytes.
func trainBundle(sp spec) ([]byte, error) {
	corpus, _, err := dataset.GenerateFrame(table1Runs(sp.trainRuns), dataset.GenOptions{
		Duration:    sp.trainDuration,
		RampSeconds: sp.trainRamp,
		Seed:        bundleSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("bundle corpus: %w", err)
	}
	cfg := paperTrainConfig(sp.trees, bundleSeed)
	if sp.bundle == bundleLean {
		cfg = leanTrainConfig(sp.trees, bundleSeed)
	}
	m, err := core.TrainFrame(corpus, cfg)
	if err != nil {
		return nil, fmt.Errorf("train bundle: %w", err)
	}
	if q := m.Forest.Quant(); q == nil || !q.FullyQuantized() {
		return nil, fmt.Errorf("train bundle: forest is not fully quantized; the stage replay mirrors the fused ingest path only")
	}
	var buf bytes.Buffer
	if err := core.SaveBundle(&buf, m, bundleSeed); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
