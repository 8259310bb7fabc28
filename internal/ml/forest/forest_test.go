package forest

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

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
			fr.Col(j)[i] = v
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

func noisyBand(n, d int, noise float64, seed int64) ([][]float64, []int) {
	r := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for j := range row {
			row[j] = r.Float64()
		}
		x[i] = row
		if row[0]+noise*r.NormFloat64() > 0.6 {
			y[i] = 1
		}
	}
	return x, y
}

func TestForestLearnsXOR(t *testing.T) {
	x, y := xorData(800, 1)
	f := New(Config{NumTrees: 40, Seed: 1})
	if err := f.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatalf("FitFrame: %v", err)
	}
	tx, ty := xorData(300, 77)
	correct := 0
	for i := range tx {
		if f.Predict(tx[i]) == ty[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(tx)); acc < 0.9 {
		t.Errorf("test accuracy %v, want >= 0.9", acc)
	}
}

func TestForestOutperformsNoiseFloor(t *testing.T) {
	x, y := noisyBand(1000, 8, 0.05, 2)
	f := New(Config{NumTrees: 30, MinSamplesLeaf: 5, Seed: 2})
	if err := f.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatalf("FitFrame: %v", err)
	}
	tx, ty := noisyBand(400, 8, 0.05, 3)
	correct := 0
	for i := range tx {
		if f.Predict(tx[i]) == ty[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(tx)); acc < 0.9 {
		t.Errorf("test accuracy %v, want >= 0.9", acc)
	}
}

func TestForestImportances(t *testing.T) {
	x, y := noisyBand(600, 6, 0, 4)
	f := New(Config{NumTrees: 25, Seed: 4})
	if err := f.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatalf("FitFrame: %v", err)
	}
	imp := f.FeatureImportances()
	if len(imp) != 6 {
		t.Fatalf("len(importances) = %d, want 6", len(imp))
	}
	sum := 0.0
	best := 0
	for i, v := range imp {
		sum += v
		if v > imp[best] {
			best = i
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("importances sum %v, want 1", sum)
	}
	if best != 0 {
		t.Errorf("dominant feature %d, want 0", best)
	}
}

func TestForestThreshold(t *testing.T) {
	x, y := noisyBand(500, 3, 0.15, 5)
	f := New(Config{NumTrees: 20, Seed: 5, Threshold: 0.4})
	if err := f.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatalf("FitFrame: %v", err)
	}
	if f.cfg.Threshold != 0.4 {
		t.Errorf("threshold = %v, want 0.4", f.cfg.Threshold)
	}
	// A lower threshold can only increase the number of positives.
	tx, _ := noisyBand(300, 3, 0.15, 6)
	countPos := func(thr float64) int {
		f.cfg.Threshold = thr
		n := 0
		for _, row := range tx {
			n += f.Predict(row)
		}
		return n
	}
	if countPos(0.2) < countPos(0.8) {
		t.Error("lowering the threshold reduced positive predictions")
	}
}

func TestForestDeterminism(t *testing.T) {
	x, y := noisyBand(300, 4, 0.1, 7)
	f1 := New(Config{NumTrees: 10, Seed: 99})
	f2 := New(Config{NumTrees: 10, Seed: 99})
	if err := f1.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	if err := f2.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 30; i++ {
		probe := []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
		if f1.PredictProba(probe) != f2.PredictProba(probe) {
			t.Fatal("same seed produced different forests")
		}
	}
}

func TestForestClassWeightModes(t *testing.T) {
	x, y := noisyBand(400, 3, 0.1, 8)
	for _, mode := range []string{"", "balanced", "subsample"} {
		f := New(Config{NumTrees: 8, Seed: 8, ClassWeight: mode})
		if err := f.FitFrame(frameOf(x), y, nil); err != nil {
			t.Errorf("ClassWeight=%q: %v", mode, err)
		}
	}
	f := New(Config{NumTrees: 4, ClassWeight: "bogus"})
	if err := f.FitFrame(frameOf(x), y, nil); err == nil {
		t.Error("expected error for unknown class weight")
	}
}

func TestForestEmptyInput(t *testing.T) {
	f := New(Config{NumTrees: 4})
	if err := f.FitFrame(frameOf(nil), nil, nil); err == nil {
		t.Error("expected error for empty training set")
	}
}

// A forest supports the best and hist splitters only; before this check a
// Random forest silently trained best-split trees.
func TestForestRejectsUnsupportedSplitter(t *testing.T) {
	x, y := xorData(50, 1)
	for _, sp := range []tree.Splitter{tree.Random, tree.Splitter(9)} {
		f := New(Config{NumTrees: 2, Splitter: sp})
		err := f.FitFrame(frameOf(x), y, nil)
		if err == nil {
			t.Fatalf("splitter %v: FitFrame succeeded", sp)
		}
		for _, want := range []string{sp.String(), tree.Best.String(), tree.Hist.String()} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("splitter %v: error %q does not name %q", sp, err, want)
			}
		}
		if err := f.FitFrame(frameOf(x), y, nil); err == nil {
			t.Errorf("splitter %v: Fit succeeded", sp)
		}
	}
}

func TestForestUnfitted(t *testing.T) {
	f := New(Config{})
	if p := f.PredictProba([]float64{1}); p != 0.5 {
		t.Errorf("unfitted proba %v, want 0.5", p)
	}
}

func TestForestNumTrees(t *testing.T) {
	x, y := noisyBand(200, 2, 0.1, 9)
	f := New(Config{NumTrees: 7, Seed: 9})
	if err := f.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	if f.NumTrees() != 7 {
		t.Errorf("NumTrees = %d, want 7", f.NumTrees())
	}
}

// Property: forest probability is the mean of tree probabilities, hence in
// [0, 1], and monotone under threshold flips.
func TestForestProbaBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 30 + r.Intn(80)
		x := make([][]float64, n)
		y := make([]int, n)
		for i := range x {
			x[i] = []float64{r.NormFloat64(), r.NormFloat64()}
			y[i] = r.Intn(2)
		}
		fr := New(Config{NumTrees: 5, Seed: seed})
		if err := fr.FitFrame(frameOf(x), y, nil); err != nil {
			return false
		}
		for i := 0; i < 10; i++ {
			p := fr.PredictProba([]float64{r.NormFloat64(), r.NormFloat64()})
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
