package core

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"monitorless/internal/dataset"
	"monitorless/internal/features"
	"monitorless/internal/ml/forest"
	"monitorless/internal/ml/score"
	"monitorless/internal/ml/tree"
	"monitorless/internal/pcp"
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
	if len(testDS.Samples) == 0 {
		t.Fatal("no held-out samples")
	}

	m, err := Train(trainDS, smallTrainConfig())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if m.TrainSamples != len(trainDS.Samples) {
		t.Errorf("TrainSamples = %d, want %d", m.TrainSamples, len(trainDS.Samples))
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

func TestModelSaveLoadRoundTrip(t *testing.T) {
	m, ds := sharedModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
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

func TestSaveBytesLoadBytes(t *testing.T) {
	m, _ := sharedModel(t)
	blob, err := m.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBytes(blob); err != nil {
		t.Fatalf("LoadBytes: %v", err)
	}
	if _, err := LoadBytes([]byte("garbage")); err == nil {
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

func TestOrchestratorORAggregation(t *testing.T) {
	m, ds := sharedModel(t)
	o := NewOrchestrator(m)

	// Feed synthetic observations: instance A gets genuine saturated-run
	// vectors, instance B gets idle vectors.
	satRun := ds.FilterRuns(1) // solr: has both classes
	var satVec, idleVec []float64
	for _, s := range satRun.Samples {
		if s.Label == 1 && satVec == nil {
			satVec = s.Values
		}
		if s.Label == 0 && idleVec == nil {
			idleVec = s.Values
		}
	}
	if satVec == nil || idleVec == nil {
		t.Fatal("run 1 lacks one of the classes")
	}

	w := m.WindowSize()
	for i := 0; i < w+2; i++ {
		obs := pcp.Observation{T: i, Vectors: map[string][]float64{
			"shop/web/0": satVec,
			"shop/db/0":  idleVec,
		}}
		if err := o.Ingest(obs); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}

	pw, ok := o.InstancePrediction("shop/web/0")
	if !ok {
		t.Fatal("missing prediction for shop/web/0")
	}
	pd, ok := o.InstancePrediction("shop/db/0")
	if !ok {
		t.Fatal("missing prediction for shop/db/0")
	}
	if !pw.Saturated {
		t.Errorf("saturated vector not flagged (prob %.2f)", pw.Prob)
	}
	if pd.Saturated {
		t.Errorf("idle vector flagged saturated (prob %.2f)", pd.Prob)
	}
	// OR aggregation: the app is saturated because one instance is.
	if !o.AppSaturated("shop") {
		t.Error("AppSaturated(shop) = false, want OR over instances = true")
	}
	apps := o.AppPredictions()
	if !apps["shop"] {
		t.Error("AppPredictions missing shop=true")
	}
	sat := o.SaturatedInstances()
	if len(sat) != 1 || sat[0] != "shop/web/0" {
		t.Errorf("SaturatedInstances = %v", sat)
	}

	// Forget drops the saturated instance; the app clears.
	o.Forget("shop/web/0")
	if o.AppSaturated("shop") {
		t.Error("app still saturated after Forget")
	}
}

func TestOrchestratorRegisterInstance(t *testing.T) {
	m, ds := sharedModel(t)
	o := NewOrchestrator(m)
	o.RegisterInstance("weird-id", "myapp")
	vec := ds.Samples[0].Values
	if err := o.Ingest(pcp.Observation{T: 0, Vectors: map[string][]float64{"weird-id": vec}}); err != nil {
		t.Fatal(err)
	}
	preds := o.AppPredictions()
	if _, ok := preds["myapp"]; !ok {
		t.Errorf("registered app missing from predictions: %v", preds)
	}
}
