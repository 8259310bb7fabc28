// Package experiments regenerates every table and figure of the paper's
// evaluation: the Table 1 training corpus, the Table 2 hyper-parameter
// grids, the Table 3 algorithm comparison, the Table 4 feature
// importances, the Table 5/6/8 evaluations on Elgg, TeaStore and Sockshop,
// the Figure 2 labeling walk-through, the Figure 3 prediction time series,
// and the Table 7 autoscaling study. Everything is driven by a Scale so
// the full suite runs at laptop size (benches) or paper size (cmd).
package experiments

import (
	"fmt"

	"monitorless/internal/core"
	"monitorless/internal/dataset"
	"monitorless/internal/features"
	"monitorless/internal/ml/forest"
	"monitorless/internal/ml/tree"
	"monitorless/internal/parallel"
)

// Scale sizes every experiment.
type Scale struct {
	// Name labels the preset.
	Name string
	// TrainDuration / RampSeconds size each Table 1 run.
	TrainDuration, RampSeconds int
	// ElggDuration / TeaStoreDuration size the evaluation runs; the
	// Sockshop run is controlled by SockshopScale (1.0 = the paper's
	// 6000-second triple-Locust schedule with 3×999 recorded samples).
	ElggDuration, TeaStoreDuration int
	SockshopScale                  float64
	// Trees / MinSamplesLeaf configure the final forest.
	Trees, MinSamplesLeaf int
	// FilterTopK / FilterTrees configure the reduction steps.
	FilterTopK, FilterTrees int
	// GridLite shrinks the Table 2 grids to the paper's chosen value
	// plus one alternative per axis.
	GridLite bool
	// AutoscaleDuration sizes Table 7.
	AutoscaleDuration int
	// Splitter selects the forest's split search: tree.Best (the exact
	// parity reference, the zero value) or tree.Hist (histogram-binned
	// training, the fast retraining path).
	Splitter tree.Splitter
	// Bins caps per-column bins for the Hist splitter; 0 = 256.
	Bins int
	// Seed drives all randomness.
	Seed int64
}

// Small returns the laptop-scale preset used by tests and benches.
func Small() Scale {
	return Scale{
		Name:              "small",
		TrainDuration:     300,
		RampSeconds:       250,
		ElggDuration:      500,
		TeaStoreDuration:  1000,
		SockshopScale:     0.2,
		Trees:             40,
		MinSamplesLeaf:    20,
		FilterTopK:        30,
		FilterTrees:       20,
		GridLite:          true,
		AutoscaleDuration: 1100,
		Seed:              42,
	}
}

// Full returns the paper-scale preset (25 runs × 900 s training, 250-tree
// forest, full evaluation horizons).
func Full() Scale {
	return Scale{
		Name:              "full",
		TrainDuration:     900,
		RampSeconds:       500,
		ElggDuration:      2456,
		TeaStoreDuration:  7193,
		SockshopScale:     1.0,
		Trees:             250,
		MinSamplesLeaf:    20,
		FilterTopK:        30,
		FilterTrees:       25,
		GridLite:          false,
		AutoscaleDuration: 7193,
		Seed:              42,
	}
}

// TrainConfig derives the monitorless training configuration.
func (s Scale) TrainConfig() core.TrainConfig {
	return core.TrainConfig{
		Pipeline: features.Config{
			Normalize:    true,
			Reduce1:      features.ReduceFilter,
			TimeFeatures: true,
			Products:     true,
			Reduce2:      features.ReduceFilter,
			FilterTopK:   s.FilterTopK,
			FilterTrees:  s.FilterTrees,
			Seed:         s.Seed,
		},
		Forest: forest.Config{
			NumTrees:       s.Trees,
			MinSamplesLeaf: s.MinSamplesLeaf,
			Criterion:      tree.Entropy,
			Splitter:       s.Splitter,
			Bins:           s.Bins,
			Seed:           s.Seed,
		},
		Threshold: 0.4,
	}
}

// Context caches the expensive shared artifacts: the Table 1 corpus and
// the trained monitorless model.
type Context struct {
	Scale  Scale
	Report *dataset.Report
	Model  *core.Model
}

// NewContext generates the full Table 1 corpus and trains the model.
func NewContext(s Scale) (*Context, error) {
	rep, err := dataset.Generate(dataset.Table1(), dataset.GenOptions{
		Duration:    s.TrainDuration,
		RampSeconds: s.RampSeconds,
		Seed:        s.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: training data: %w", err)
	}
	m, err := core.Train(rep.Dataset, s.TrainConfig())
	if err != nil {
		return nil, fmt.Errorf("experiments: train: %w", err)
	}
	return &Context{Scale: s, Report: rep, Model: m}, nil
}

// EvalSet bundles the evaluation datasets behind Tables 3 and 5–8; unset
// applications stay nil.
type EvalSet struct {
	Elgg, TeaStore, Sockshop *EvalData
}

// CollectEvals collects the requested evaluation runs concurrently on the
// shared pool. Each run builds its own engine and seeded agent, so the
// collected datasets are identical to collecting them one after another.
func CollectEvals(ctx *Context, elgg, teaStore, sockshop bool) (*EvalSet, error) {
	set := &EvalSet{}
	var tasks []func() error
	if elgg {
		tasks = append(tasks, func() error {
			d, err := CollectElgg(ctx)
			set.Elgg = d
			return err
		})
	}
	if teaStore {
		tasks = append(tasks, func() error {
			d, err := CollectTeaStore(ctx)
			set.TeaStore = d
			return err
		})
	}
	if sockshop {
		tasks = append(tasks, func() error {
			d, err := CollectSockshop(ctx)
			set.Sockshop = d
			return err
		})
	}
	if err := parallel.ForEach(len(tasks), func(i int) error { return tasks[i]() }); err != nil {
		return nil, err
	}
	return set, nil
}
