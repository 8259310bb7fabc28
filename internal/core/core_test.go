package core

import (
	"math"
	"sync"
	"testing"

	"monitorless/internal/dataset"
	"monitorless/internal/features"
	"monitorless/internal/ml/forest"
	"monitorless/internal/ml/score"
	"monitorless/internal/ml/tree"
)

// smallTrainConfig keeps tests fast while exercising the full pipeline.
func smallTrainConfig() TrainConfig {
	return TrainConfig{
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
	}
}

var (
	testDataOnce sync.Once
	testReport   *dataset.Report
	testDataErr  error

	testModelOnce sync.Once
	testModel     *Model
	testModelErr  error
)

// trainSubset generates (once per test binary) a compact training corpus
// from a few Table 1 runs that cover CPU, memory-thrash and host-level
// bottlenecks.
func trainSubset(t *testing.T) (*dataset.Report, *dataset.Dataset) {
	t.Helper()
	testDataOnce.Do(func() {
		all := dataset.Table1()
		var cfgs []dataset.RunConfig
		for _, c := range all {
			switch c.ID {
			case 1, 6, 8, 10, 22, 23: // solr CPU, solr parallel, memcache CPU, memcache thrash pair
				cfgs = append(cfgs, c)
			}
		}
		testReport, testDataErr = dataset.Generate(cfgs, dataset.GenOptions{Duration: 350, RampSeconds: 250, Seed: 3})
	})
	if testDataErr != nil {
		t.Fatalf("Generate: %v", testDataErr)
	}
	return testReport, testReport.Dataset
}

// sharedModel trains (once per test binary) a model on the full subset.
func sharedModel(t *testing.T) (*Model, *dataset.Dataset) {
	t.Helper()
	_, ds := trainSubset(t)
	testModelOnce.Do(func() {
		testModel, testModelErr = Train(ds, smallTrainConfig())
	})
	if testModelErr != nil {
		t.Fatalf("Train: %v", testModelErr)
	}
	return testModel, ds
}

func TestTrainAndEvaluateHeldOutRun(t *testing.T) {
	_, ds := trainSubset(t)
	if ds.SaturatedFraction() <= 0.02 || ds.SaturatedFraction() >= 0.98 {
		t.Fatalf("degenerate training mix: %.2f saturated", ds.SaturatedFraction())
	}

	// Hold out run 1 (solr, container CPU) for evaluation.
	trainDS := ds.FilterRuns(6, 8, 10, 22, 23)
	testDS := ds.FilterRuns(1)
	if testDS.Frame().Rows() == 0 {
		t.Fatal("no held-out samples")
	}

	m, err := Train(trainDS, smallTrainConfig())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if m.TrainSamples != trainDS.Frame().Rows() {
		t.Errorf("TrainSamples = %d, want %d", m.TrainSamples, trainDS.Frame().Rows())
	}

	preds, probs, err := m.PredictFrame(testDS.Frame())
	if err != nil {
		t.Fatalf("PredictFrame: %v", err)
	}
	pred := preds[1]
	truth := testDS.Frame().Labels()
	if len(pred) != len(truth) {
		t.Fatalf("prediction length %d vs %d labels", len(pred), len(truth))
	}
	c, err := score.CountLagged(pred, truth, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.F1() < 0.6 {
		t.Errorf("held-out F1₂ = %.3f (%+v): model failed to generalize", c.F1(), c)
	}
	for _, q := range probs[1] {
		if q < 0 || q > 1 || math.IsNaN(q) {
			t.Fatalf("invalid probability %v", q)
		}
	}
}

// TestModelSaveLoadRoundTrip: a model's gob image (the blob a bundle
// carries) decodes to a model that predicts bit for bit as the original.
func TestModelSaveLoadRoundTrip(t *testing.T) {
	m, ds := sharedModel(t)
	blob, err := m.encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := decodeModel(blob)
	if err != nil {
		t.Fatalf("decodeModel: %v", err)
	}
	if back.Threshold != m.Threshold || back.TrainSamples != m.TrainSamples {
		t.Error("model metadata lost in round trip")
	}
	// Predictions must be identical.
	fr := ds.FilterRuns(1).Frame()
	p1, _, err := m.PredictFrame(fr)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := back.PredictFrame(fr)
	if err != nil {
		t.Fatal(err)
	}
	for run := range p1 {
		for i := range p1[run] {
			if p1[run][i] != p2[run][i] {
				t.Fatal("loaded model disagrees with original")
			}
		}
	}
}

// TestSaveBytesLoadBytes: the model blob decoder refuses bytes that are
// not a model's gob image.
func TestSaveBytesLoadBytes(t *testing.T) {
	if _, err := decodeModel([]byte("garbage")); err == nil {
		t.Error("expected error for corrupt payload")
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, DefaultTrainConfig()); err == nil {
		t.Error("expected error for nil dataset")
	}
	if _, err := Train(&dataset.Dataset{}, DefaultTrainConfig()); err == nil {
		t.Error("expected error for empty dataset")
	}
	_, ds := trainSubset(t)
	bad := smallTrainConfig()
	bad.Pipeline.Reduce1 = features.ReduceNone // products without reduction
	if _, err := Train(ds, bad); err == nil {
		t.Error("expected invalid pipeline config error")
	}
}

func TestFeatureImportancesSorted(t *testing.T) {
	m, _ := sharedModel(t)
	imp := m.FeatureImportances()
	if len(imp) == 0 {
		t.Fatal("no importances")
	}
	total := 0.0
	for i, fi := range imp {
		if fi.Name == "" {
			t.Errorf("importance %d has no name", i)
		}
		if i > 0 && fi.Importance > imp[i-1].Importance {
			t.Fatal("importances not sorted descending")
		}
		total += fi.Importance
	}
	if math.Abs(total-1) > 1e-6 {
		t.Errorf("importances sum to %v", total)
	}
}

func TestDefaultTrainConfigMirrorsPaper(t *testing.T) {
	cfg := DefaultTrainConfig()
	if cfg.Forest.NumTrees != 250 {
		t.Errorf("NumTrees = %d, want the paper's 250", cfg.Forest.NumTrees)
	}
	if cfg.Forest.MinSamplesLeaf != 20 {
		t.Errorf("MinSamplesLeaf = %d, want 20", cfg.Forest.MinSamplesLeaf)
	}
	if cfg.Forest.Criterion != tree.Entropy {
		t.Error("criterion should be information gain (entropy)")
	}
	if cfg.Threshold != 0.4 {
		t.Errorf("threshold %v, want 0.4", cfg.Threshold)
	}
}
