package boost

import (
	"math"
	"math/rand"
	"testing"

	"monitorless/internal/frame"
	"monitorless/internal/ml/tree"
)

// frameOf transposes row-major test data into an anonymous-schema frame.
func frameOf(x [][]float64) *frame.Frame {
	d := 0
	if len(x) > 0 {
		d = len(x[0])
	}
	fr := frame.NewDense(make(frame.Schema, d), len(x), nil, nil)
	for i, row := range x {
		for j, v := range row {
			fr.Set(i, j, v)
		}
	}
	return fr
}

func xorData(n int, seed int64) ([][]float64, []int) {
	r := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		a, b := r.Float64(), r.Float64()
		x[i] = []float64{a, b}
		if (a > 0.5) != (b > 0.5) {
			y[i] = 1
		}
	}
	return x, y
}

func ringData(n int, seed int64) ([][]float64, []int) {
	r := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		a, b := 2*r.Float64()-1, 2*r.Float64()-1
		x[i] = []float64{a, b}
		if a*a+b*b < 0.4 {
			y[i] = 1
		}
	}
	return x, y
}

func accOf(predict func([]float64) int, x [][]float64, y []int) float64 {
	c := 0
	for i := range x {
		if predict(x[i]) == y[i] {
			c++
		}
	}
	return float64(c) / float64(len(x))
}

func TestAdaBoostSAMMELearnsXOR(t *testing.T) {
	x, y := xorData(600, 1)
	a := NewAdaBoost(AdaBoostConfig{NumEstimators: 30, Variant: SAMME, Seed: 1})
	if err := a.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatalf("FitFrame: %v", err)
	}
	if acc := accOf(a.Predict, x, y); acc < 0.93 {
		t.Errorf("SAMME accuracy %v, want >= 0.93", acc)
	}
}

func TestAdaBoostSAMMERLearnsRing(t *testing.T) {
	x, y := ringData(600, 2)
	a := NewAdaBoost(AdaBoostConfig{NumEstimators: 30, Variant: SAMMER, Seed: 2})
	if err := a.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatalf("FitFrame: %v", err)
	}
	if acc := accOf(a.Predict, x, y); acc < 0.9 {
		t.Errorf("SAMME.R accuracy %v, want >= 0.9", acc)
	}
}

func TestAdaBoostStagesBounded(t *testing.T) {
	x, y := xorData(300, 3)
	a := NewAdaBoost(AdaBoostConfig{NumEstimators: 10, Seed: 3})
	if err := a.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	if len(a.stages) > 10 {
		t.Errorf("NumStages = %d, want <= 10", len(a.stages))
	}
	if len(a.stages) == 0 {
		t.Error("no stages were kept")
	}
}

func TestAdaBoostPerfectStageStops(t *testing.T) {
	// Trivially separable: the first tree is perfect, boosting stops early.
	x := [][]float64{{0}, {0.1}, {0.9}, {1}}
	y := []int{0, 0, 1, 1}
	a := NewAdaBoost(AdaBoostConfig{NumEstimators: 25, Seed: 4})
	if err := a.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	if len(a.stages) != 1 {
		t.Errorf("NumStages = %d, want 1 after a perfect stage", len(a.stages))
	}
	if accOf(a.Predict, x, y) != 1 {
		t.Error("perfect data not perfectly classified")
	}
}

func TestAdaBoostRandomSplitterVariant(t *testing.T) {
	x, y := xorData(400, 5)
	a := NewAdaBoost(AdaBoostConfig{
		NumEstimators: 30,
		TreeSplitter:  tree.Random,
		TreeCriterion: tree.Entropy,
		Seed:          5,
	})
	if err := a.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	if acc := accOf(a.Predict, x, y); acc < 0.85 {
		t.Errorf("random-splitter AdaBoost accuracy %v, want >= 0.85", acc)
	}
}

func TestAdaBoostUnfitted(t *testing.T) {
	a := NewAdaBoost(AdaBoostConfig{})
	if a.Predict([]float64{1}) != 0 {
		t.Error("unfitted AdaBoost should predict 0")
	}
	if p := a.PredictProba([]float64{1}); p != 0.5 {
		t.Errorf("unfitted proba %v, want 0.5", p)
	}
}

func TestAdaBoostValidation(t *testing.T) {
	a := NewAdaBoost(AdaBoostConfig{})
	if err := a.FitFrame(frameOf(nil), nil, nil); err == nil {
		t.Error("expected error on empty input")
	}
}

func TestGBTLearnsXOR(t *testing.T) {
	x, y := xorData(600, 6)
	g := NewGBT(GBTConfig{NumRounds: 60, MaxDepth: 3, Seed: 6})
	if err := g.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatalf("FitFrame: %v", err)
	}
	if acc := accOf(g.Predict, x, y); acc < 0.95 {
		t.Errorf("GBT accuracy %v, want >= 0.95", acc)
	}
}

func TestGBTGeneralizesRing(t *testing.T) {
	x, y := ringData(800, 7)
	g := NewGBT(GBTConfig{NumRounds: 80, MaxDepth: 4, LearningRate: 0.2, Seed: 7})
	if err := g.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	tx, ty := ringData(300, 99)
	if acc := accOf(g.Predict, tx, ty); acc < 0.9 {
		t.Errorf("GBT test accuracy %v, want >= 0.9", acc)
	}
}

func TestGBTGammaPrunes(t *testing.T) {
	x, y := xorData(300, 8)
	loose := NewGBT(GBTConfig{NumRounds: 10, MaxDepth: 4, Gamma: 0, Seed: 8})
	tight := NewGBT(GBTConfig{NumRounds: 10, MaxDepth: 4, Gamma: 1e6, Seed: 8})
	if err := loose.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	if err := tight.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	nodes := func(g *GBT) int {
		n := 0
		for _, tr := range g.trees {
			n += len(tr.nodes)
		}
		return n
	}
	if nodes(tight) >= nodes(loose) {
		t.Errorf("huge gamma should prune: tight=%d loose=%d nodes", nodes(tight), nodes(loose))
	}
}

func TestGBTMinChildWeight(t *testing.T) {
	x, y := xorData(300, 9)
	g := NewGBT(GBTConfig{NumRounds: 5, MaxDepth: 6, MinChildWeight: 1e9, Seed: 9})
	if err := g.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	for _, tr := range g.trees {
		if len(tr.nodes) != 1 {
			t.Fatal("impossible MinChildWeight should force single-leaf trees")
		}
	}
}

func TestGBTSubsample(t *testing.T) {
	x, y := xorData(500, 10)
	g := NewGBT(GBTConfig{NumRounds: 60, MaxDepth: 3, Subsample: 0.7, Seed: 10})
	if err := g.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	if acc := accOf(g.Predict, x, y); acc < 0.9 {
		t.Errorf("subsampled GBT accuracy %v, want >= 0.9", acc)
	}
}

func TestGBTBaseRate(t *testing.T) {
	// All-negative corner: base log-odds must stay finite and predictions 0.
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []int{0, 0, 0, 0}
	g := NewGBT(GBTConfig{NumRounds: 3, Seed: 11})
	if err := g.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	if math.IsInf(g.base, 0) || math.IsNaN(g.base) {
		t.Fatalf("base = %v", g.base)
	}
	for _, row := range x {
		if g.Predict(row) != 0 {
			t.Error("all-negative training should predict 0")
		}
	}
}

func TestGBTUnfitted(t *testing.T) {
	g := NewGBT(GBTConfig{})
	if p := g.PredictProba([]float64{1}); p != 0.5 {
		t.Errorf("unfitted proba %v, want 0.5", p)
	}
}

func TestGBTValidation(t *testing.T) {
	g := NewGBT(GBTConfig{})
	if err := g.FitFrame(frameOf(nil), nil, nil); err == nil {
		t.Error("expected error on empty input")
	}
}

func TestClampProb(t *testing.T) {
	if clampProb(0) <= 0 || clampProb(1) >= 1 {
		t.Error("clampProb must keep probabilities strictly inside (0,1)")
	}
	if clampProb(0.5) != 0.5 {
		t.Error("clampProb must not move interior values")
	}
}
