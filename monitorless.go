// Package monitorless is a faithful, self-contained Go reproduction of
// "Monitorless: Predicting Performance Degradation in Cloud Applications
// with Machine Learning" (Grohmann, Nicholson, Omana Iglesias, Kounev,
// Lugones — Middleware '19).
//
// Monitorless trains a binary classifier on application-agnostic platform
// metrics (host-level PCP metrics plus per-container cgroup metrics) to
// predict whether a containerized service instance is saturated — without
// monitoring application KPIs in production. Application KPIs are used
// only offline, to label training data via Kneedle knee detection on the
// throughput-vs-load curve of a linear ramp experiment.
//
// The package re-exports the high-level API; the full machinery lives in
// the internal packages:
//
//   - internal/workload, cluster, apps, pcp — the simulated substrate
//     (load patterns, nodes/cgroups, queueing-theoretic services, and the
//     Performance Co-Pilot-style metric collection);
//   - internal/smooth, kneedle, label — the §2.2 labeling methodology;
//   - internal/dataset — the Table 1 training corpus generator;
//   - internal/features — the §3.3 feature-engineering pipeline;
//   - internal/ml/... — from-scratch learners (random forest, CART,
//     AdaBoost, gradient-boosted trees, logistic regression, linear SVC,
//     MLP) plus scoring and grouped cross-validation;
//   - internal/core — model training, bundle persistence and the online
//     engine;
//   - internal/serving — the §2 central component: sharded per-instance
//     state, per-application OR aggregation and its HTTP server;
//   - internal/autoscale — the §4.2.2 autoscaling study;
//   - internal/experiments — one driver per paper table/figure.
//
// Quickstart:
//
//	report, _ := monitorless.GenerateTrainingData(monitorless.DataOptions{})
//	model, _ := monitorless.Train(report.Dataset, monitorless.DefaultTrainConfig())
//	svc, _ := monitorless.NewService(model)
//	// each tick: obs, ok := agent.Observe(eng) from a pcp.Agent;
//	// if ok, svc.Predict(obs); then read svc.Apps()
package monitorless

import (
	"fmt"
	"io"

	"monitorless/internal/core"
	"monitorless/internal/dataset"
	"monitorless/internal/pcp"
	"monitorless/internal/serving"
)

// Model is a trained monitorless saturation classifier.
type Model = core.Model

// TrainConfig bundles the feature pipeline layout and random-forest
// hyper-parameters.
type TrainConfig = core.TrainConfig

// Service ingests per-instance metric vectors, infers saturation per
// container and aggregates per application with a logical OR (§2, §4).
type Service = serving.Service

// Prediction is one instance's latest inference.
type Prediction = serving.Prediction

// Dataset is a labeled training corpus.
type Dataset = dataset.Dataset

// DataReport carries a generated corpus plus the per-run Υ thresholds.
type DataReport = dataset.Report

// Observation is one tick's processed per-instance metric vectors in the
// wire form an agent emits and a Service ingests.
type Observation = pcp.WireObservation

// DefaultTrainConfig returns the paper's selected configuration: the
// normalize → filter → time+products → filter pipeline and a 250-tree
// random forest (information gain, 20 samples per leaf, threshold 0.4).
func DefaultTrainConfig() TrainConfig { return core.DefaultTrainConfig() }

// Train fits the feature pipeline and classifier on a labeled dataset.
func Train(ds *Dataset, cfg TrainConfig) (*Model, error) { return core.Train(ds, cfg) }

// SaveModel writes the model as a bundle, the one on-disk model format:
// cmd/serve and cmd/experiments -model load the file it writes.
func SaveModel(w io.Writer, m *Model) error { return core.SaveBundle(w, m, 0) }

// LoadModel reads a bundle written by SaveModel or cmd/train, refusing a
// corrupt blob, a schema-hash mismatch or a missing training fingerprint.
func LoadModel(r io.Reader) (*Model, error) {
	b, err := core.LoadBundle(r)
	if err != nil {
		return nil, err
	}
	return b.Model, nil
}

// NewService returns an in-process Service over a trained model with the
// serving defaults (1-of-1 debounce, DefaultShards shards).
func NewService(m *Model) (*Service, error) { return serving.New(serving.Config{Model: m}) }

// DataOptions sizes training-data generation. The zero value generates
// the paper's full 25-run Table 1 corpus at default durations.
type DataOptions struct {
	// Runs restricts generation to these Table 1 run IDs (nil = all 25).
	Runs []int
	// Duration is the measured seconds per run (default 900).
	Duration int
	// RampSeconds sizes the threshold-discovery ramps (default 500).
	RampSeconds int
	// Seed drives workload jitter and measurement noise.
	Seed int64
}

// GenerateTrainingData executes the Table 1 training configurations on
// the simulator and returns the labeled corpus.
func GenerateTrainingData(opt DataOptions) (*DataReport, error) {
	cfgs := dataset.Table1()
	if len(opt.Runs) > 0 {
		want := make(map[int]bool, len(opt.Runs))
		for _, id := range opt.Runs {
			want[id] = true
		}
		var filtered []dataset.RunConfig
		for _, c := range cfgs {
			if want[c.ID] {
				filtered = append(filtered, c)
			}
		}
		if len(filtered) == 0 {
			return nil, fmt.Errorf("monitorless: no Table 1 runs match %v", opt.Runs)
		}
		cfgs = filtered
	}
	return dataset.Generate(cfgs, dataset.GenOptions{
		Duration:    opt.Duration,
		RampSeconds: opt.RampSeconds,
		Seed:        opt.Seed,
	})
}
