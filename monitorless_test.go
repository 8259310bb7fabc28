package monitorless_test

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"

	"monitorless"
	"monitorless/internal/features"
	"monitorless/internal/pcp"
)

var (
	facadeOnce  sync.Once
	facadeModel *monitorless.Model
	facadeData  *monitorless.DataReport
	facadeErr   error
)

// facade trains a compact model once for all facade tests.
func facade(t *testing.T) (*monitorless.Model, *monitorless.DataReport) {
	t.Helper()
	facadeOnce.Do(func() {
		facadeData, facadeErr = monitorless.GenerateTrainingData(monitorless.DataOptions{
			Runs:        []int{1, 6, 8, 22},
			Duration:    250,
			RampSeconds: 200,
			Seed:        5,
		})
		if facadeErr != nil {
			return
		}
		cfg := monitorless.DefaultTrainConfig()
		cfg.Forest.NumTrees = 25
		cfg.Pipeline.FilterTrees = 10
		facadeModel, facadeErr = monitorless.Train(facadeData.Dataset, cfg)
	})
	if facadeErr != nil {
		t.Fatalf("facade setup: %v", facadeErr)
	}
	return facadeModel, facadeData
}

func TestGenerateTrainingDataRunFilter(t *testing.T) {
	_, report := facade(t)
	runs := report.Dataset.RunIDs()
	if len(runs) != 4 {
		t.Fatalf("got runs %v, want the 4 requested", runs)
	}
	want := map[int]bool{1: true, 6: true, 8: true, 22: true}
	for _, id := range runs {
		if !want[id] {
			t.Errorf("unexpected run %d", id)
		}
	}
	if f := report.Dataset.SaturatedFraction(); f <= 0 || f >= 1 {
		t.Errorf("degenerate label mix %.2f", f)
	}
}

func TestFacadeTrainAndPredict(t *testing.T) {
	model, report := facade(t)
	if model.WindowSize() < 1 {
		t.Error("window size must be positive")
	}
	// Round-trip through the exported persistence helpers: the facade
	// writes the bundle format the commands load.
	var buf bytes.Buffer
	if err := monitorless.SaveModel(&buf, model); err != nil {
		t.Fatalf("SaveModel: %v", err)
	}
	back, err := monitorless.LoadModel(&buf)
	if err != nil {
		t.Fatalf("LoadModel: %v", err)
	}

	// Serve a synthetic observation stream through the facade.
	svc, err := monitorless.NewService(back)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	var satVec []float64
	fr := report.Dataset.Frame()
	for i, l := range fr.Labels() {
		if l == 1 {
			satVec = fr.Row(i, nil)
			break
		}
	}
	if satVec == nil {
		t.Fatal("no saturated training sample")
	}
	for i := 0; i < back.WindowSize()+1; i++ {
		obs := monitorless.Observation{T: i, Samples: []pcp.WireSample{{Instance: "app/svc/0", Values: satVec}}}
		if _, err := svc.Predict(obs); err != nil {
			t.Fatalf("Predict: %v", err)
		}
	}
	pred, ok := svc.InstancePrediction("app/svc/0")
	if !ok {
		t.Fatal("no prediction recorded")
	}
	if !pred.Saturated {
		t.Errorf("training-set saturated vector not flagged (prob %.2f)", pred.Prob)
	}
	if !svc.Apps()["app"].Raw {
		t.Error("OR aggregation missed the saturated instance")
	}
}

// TestFacadeRefusesPCA: a PCA-reduced pipeline has no streaming path, so
// NewService refuses the model and names the step.
func TestFacadeRefusesPCA(t *testing.T) {
	_, report := facade(t)
	cfg := monitorless.DefaultTrainConfig()
	cfg.Pipeline = features.Config{Normalize: true, Reduce1: features.ReducePCA, PCAMax: 8, Seed: 5}
	cfg.Forest.NumTrees = 5
	m, err := monitorless.Train(report.Dataset, cfg)
	if err != nil {
		t.Fatalf("pca train: %v", err)
	}
	if _, err := monitorless.NewService(m); err == nil || !strings.Contains(err.Error(), "step pca has no columnar kernel") {
		t.Fatalf("NewService on a PCA model: err = %v, want the PCA refusal", err)
	}
}

func TestGenerateTrainingDataUnknownRun(t *testing.T) {
	_, err := monitorless.GenerateTrainingData(monitorless.DataOptions{Runs: []int{999}})
	if err == nil {
		t.Error("expected error for a run filter matching nothing")
	}
}

func TestDefaultTrainConfigIsPaper(t *testing.T) {
	cfg := monitorless.DefaultTrainConfig()
	if cfg.Forest.NumTrees != 250 || cfg.Threshold != 0.4 {
		t.Errorf("default config drifted from the paper: %+v", cfg)
	}
}

// TestBenchModuleCompiles type-checks bench/ against the working tree.
// bench/ is its own Go module, so `go build ./... && go test ./...` never
// compiles it, and an internal/ rename it depends on would otherwise
// surface only when the repository benchmark fails to build. Its go.mod
// has nothing but the replace directive, so this needs no network. go test
// may serve the result from its cache; scripts/verify.sh runs with -count=1.
func TestBenchModuleCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("vets a second module; skipped under -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local") // as bench/run.sh sets them
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
