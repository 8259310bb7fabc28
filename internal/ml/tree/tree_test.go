package tree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"monitorless/internal/frame"
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

// depth returns the depth of a fitted tree (0 for a single leaf).
func depth(t *Tree) int {
	if len(t.feature) == 0 {
		return 0
	}
	var walk func(i int32) int
	walk = func(i int32) int {
		if t.feature[i] < 0 {
			return 0
		}
		return 1 + max(walk(t.left[i]), walk(t.right[i]))
	}
	return walk(0)
}

// xorData is non-linearly separable: label = (x0 > 0.5) XOR (x1 > 0.5).
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

// bandData is linearly separable on one feature with distractors.
func bandData(n, d int, seed int64) ([][]float64, []int) {
	r := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for j := range row {
			row[j] = r.Float64()
		}
		x[i] = row
		if row[0] > 0.6 {
			y[i] = 1
		}
	}
	return x, y
}

func accuracy(t *Tree, x [][]float64, y []int) float64 {
	correct := 0
	for i := range x {
		if t.Predict(x[i]) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(x))
}

func TestTreeLearnsXOR(t *testing.T) {
	x, y := xorData(600, 1)
	tr := New(Config{})
	if err := tr.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatalf("FitFrame: %v", err)
	}
	if acc := accuracy(tr, x, y); acc < 0.95 {
		t.Errorf("training accuracy %v, want >= 0.95 (trees handle XOR)", acc)
	}
}

func TestTreeGeneralizes(t *testing.T) {
	x, y := bandData(800, 5, 2)
	tr := New(Config{MinSamplesLeaf: 5})
	if err := tr.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatalf("FitFrame: %v", err)
	}
	tx, ty := bandData(400, 5, 99)
	correct := 0
	for i := range tx {
		if tr.Predict(tx[i]) == ty[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(tx)); acc < 0.9 {
		t.Errorf("test accuracy %v, want >= 0.9", acc)
	}
}

func TestTreeMaxDepth(t *testing.T) {
	x, y := xorData(500, 3)
	tr := New(Config{MaxDepth: 2})
	if err := tr.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatalf("FitFrame: %v", err)
	}
	if d := depth(tr); d > 2 {
		t.Errorf("depth %d exceeds MaxDepth 2", d)
	}
}

func TestTreeStumpIsDepthOne(t *testing.T) {
	x, y := bandData(200, 3, 4)
	tr := New(Config{MaxDepth: 1})
	if err := tr.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatalf("FitFrame: %v", err)
	}
	if d := depth(tr); d != 1 {
		t.Errorf("stump depth %d, want 1", d)
	}
}

func TestTreeMinSamplesLeaf(t *testing.T) {
	x, y := bandData(300, 2, 5)
	tr := New(Config{MinSamplesLeaf: 50})
	if err := tr.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatalf("FitFrame: %v", err)
	}
	// A strict leaf minimum must shrink the tree well below one leaf per
	// sample.
	if len(tr.feature) > 20 {
		t.Errorf("tree has %d nodes despite MinSamplesLeaf=50", len(tr.feature))
	}
}

func TestTreePureLeafShortCircuit(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}}
	y := []int{1, 1, 1}
	tr := New(Config{})
	if err := tr.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatalf("FitFrame: %v", err)
	}
	if len(tr.feature) != 1 {
		t.Errorf("pure training set should yield a single leaf, got %d nodes", len(tr.feature))
	}
	if p := tr.PredictProba([]float64{5}); p != 1 {
		t.Errorf("PredictProba = %v, want 1", p)
	}
}

func TestTreeImportancesConcentrate(t *testing.T) {
	x, y := bandData(800, 6, 6)
	tr := New(Config{MinSamplesLeaf: 10})
	if err := tr.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatalf("FitFrame: %v", err)
	}
	imp := tr.FeatureImportances()
	sum := 0.0
	best := 0
	for i, v := range imp {
		if v < 0 {
			t.Fatalf("importance[%d] = %v < 0", i, v)
		}
		sum += v
		if v > imp[best] {
			best = i
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("importances sum to %v, want 1", sum)
	}
	if best != 0 {
		t.Errorf("most important feature is %d, want 0 (the signal feature)", best)
	}
	if imp[0] < 0.8 {
		t.Errorf("signal feature importance %v, want >= 0.8", imp[0])
	}
}

func TestTreeWeightedFitShiftsDecision(t *testing.T) {
	// Overlapping classes; upweighting the positive class should push the
	// predicted probability for ambiguous points up.
	x := [][]float64{{0}, {0.4}, {0.5}, {0.6}, {1}}
	y := []int{0, 0, 1, 0, 1}
	w := []float64{1, 1, 10, 1, 10}
	tr := New(Config{MaxDepth: 1, MinSamplesLeaf: 1})
	if err := tr.FitFrameSamples(frameOf(x), nil, y, w); err != nil {
		t.Fatalf("FitFrameSamples: %v", err)
	}
	tu := New(Config{MaxDepth: 1, MinSamplesLeaf: 1})
	if err := tu.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatalf("FitFrame: %v", err)
	}
	if tr.PredictProba([]float64{0.55}) <= tu.PredictProba([]float64{0.55}) {
		t.Error("upweighting positives did not raise the predicted probability")
	}
}

func TestTreeWeightValidation(t *testing.T) {
	x := [][]float64{{1}, {2}}
	y := []int{0, 1}
	tr := New(Config{})
	if err := tr.FitFrameSamples(frameOf(x), nil, y, []float64{1}); err == nil {
		t.Error("expected weight-length error")
	}
	if err := tr.FitFrameSamples(frameOf(x), nil, y, []float64{0, 0}); err == nil {
		t.Error("expected zero-total-weight error")
	}
}

func TestTreeInvalidInputs(t *testing.T) {
	tr := New(Config{})
	if err := tr.FitFrame(frameOf(nil), nil, nil); err == nil {
		t.Error("expected error for empty input")
	}
	if err := tr.FitFrame(frameOf([][]float64{{1}, {2}}), []int{0}, nil); err == nil {
		t.Error("expected error for length mismatch")
	}
}

func TestTreeUnfittedPredict(t *testing.T) {
	tr := New(Config{})
	if p := tr.PredictProba([]float64{1}); p != 0.5 {
		t.Errorf("unfitted PredictProba = %v, want 0.5", p)
	}
}

func TestTreeRandomSplitter(t *testing.T) {
	x, y := bandData(600, 4, 7)
	tr := New(Config{Splitter: Random, Seed: 3, MinSamplesLeaf: 5})
	if err := tr.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatalf("FitFrame: %v", err)
	}
	if acc := accuracy(tr, x, y); acc < 0.85 {
		t.Errorf("random splitter accuracy %v, want >= 0.85", acc)
	}
}

func TestTreeEntropyCriterion(t *testing.T) {
	x, y := xorData(400, 8)
	tr := New(Config{Criterion: Entropy})
	if err := tr.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatalf("FitFrame: %v", err)
	}
	if acc := accuracy(tr, x, y); acc < 0.95 {
		t.Errorf("entropy tree accuracy %v, want >= 0.95", acc)
	}
}

// Every entry of the unit-weight entropy table is the bits impurity
// computes for its integer pair, so reading it can never move a split.
func TestUnitEntropyTableExact(t *testing.T) {
	h := unitEntropy()
	if want := (maxUnitEntropy + 1) * (maxUnitEntropy + 2) / 2; len(h) != want {
		t.Fatalf("table has %d entries, want %d", len(h), want)
	}
	k := 0
	for a := 0; a <= maxUnitEntropy; a++ {
		for b := 0; b <= a; b++ {
			want := impurity(Entropy, float64(a), float64(b))
			if math.Float64bits(h[k]) != math.Float64bits(want) {
				t.Fatalf("H(%d, %d) = %v, impurity computes %v", a, b, h[k], want)
			}
			k++
		}
	}
}

func TestTreeDeterministicWithSeed(t *testing.T) {
	x, y := bandData(300, 4, 9)
	t1 := New(Config{MaxFeatures: 2, Seed: 42})
	t2 := New(Config{MaxFeatures: 2, Seed: 42})
	if err := t1.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	if err := t2.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		probe := []float64{rand.Float64(), rand.Float64(), rand.Float64(), rand.Float64()}
		if t1.PredictProba(probe) != t2.PredictProba(probe) {
			t.Fatal("same seed produced different trees")
		}
	}
}

// Property: leaf probabilities are always valid probabilities.
func TestTreeProbaBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(100)
		x := make([][]float64, n)
		y := make([]int, n)
		for i := range x {
			x[i] = []float64{r.NormFloat64(), r.NormFloat64()}
			y[i] = r.Intn(2)
		}
		tr := New(Config{})
		if err := tr.FitFrame(frameOf(x), y, nil); err != nil {
			return false
		}
		for i := 0; i < 20; i++ {
			p := tr.PredictProba([]float64{r.NormFloat64(), r.NormFloat64()})
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCriterionString(t *testing.T) {
	if Gini.String() != "gini" || Entropy.String() != "entropy" {
		t.Error("Criterion.String mismatch")
	}
	if Criterion(9).String() != "Criterion(9)" {
		t.Error("unknown criterion string")
	}
}
