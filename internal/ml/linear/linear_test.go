package linear

import (
	"math"
	"math/rand"
	"testing"

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
			fr.Col(j)[i] = v
		}
	}
	return fr
}

// separable generates a linearly separable problem with margin.
func separable(n, d int, seed int64) ([][]float64, []int) {
	r := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for j := range row {
			row[j] = r.NormFloat64()
		}
		x[i] = row
		score := row[0] - 0.5*row[1%d]
		if score > 0.2 {
			y[i] = 1
		} else if score < -0.2 {
			y[i] = 0
		} else {
			i-- // resample inside the margin
			continue
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

func TestLogRegSeparable(t *testing.T) {
	x, y := separable(500, 4, 1)
	m := NewLogReg(LogRegConfig{C: 1, MaxEpochs: 50, Seed: 1})
	if err := m.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatalf("FitFrame: %v", err)
	}
	if acc := accOf(m.Predict, x, y); acc < 0.95 {
		t.Errorf("accuracy %v, want >= 0.95 on separable data", acc)
	}
}

func TestLogRegProbabilitiesCalibratedDirection(t *testing.T) {
	x, y := separable(500, 2, 2)
	m := NewLogReg(LogRegConfig{C: 1, MaxEpochs: 50, Seed: 2})
	if err := m.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatalf("FitFrame: %v", err)
	}
	pFar := m.PredictProba([]float64{5, 0})
	pNear := m.PredictProba([]float64{0.3, 0})
	pNeg := m.PredictProba([]float64{-5, 0})
	if !(pFar > pNear && pNear > pNeg) {
		t.Errorf("probabilities not monotone along the signal axis: %v %v %v", pFar, pNear, pNeg)
	}
	if pFar < 0.9 || pNeg > 0.1 {
		t.Errorf("extreme points not confident: %v, %v", pFar, pNeg)
	}
}

func TestLogRegBalancedWeights(t *testing.T) {
	// Imbalanced overlapping data: balanced mode should raise recall on
	// the minority class.
	r := rand.New(rand.NewSource(3))
	var x [][]float64
	var y []int
	for i := 0; i < 900; i++ {
		x = append(x, []float64{r.NormFloat64() - 0.3})
		y = append(y, 0)
	}
	for i := 0; i < 100; i++ {
		x = append(x, []float64{r.NormFloat64() + 0.3})
		y = append(y, 1)
	}
	plain := NewLogReg(LogRegConfig{MaxEpochs: 40, Seed: 3})
	bal := NewLogReg(LogRegConfig{MaxEpochs: 40, Seed: 3, ClassWeight: "balanced"})
	if err := plain.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	if err := bal.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	recall := func(m *LogReg) float64 {
		tp, fn := 0, 0
		for i := range x {
			if y[i] == 1 {
				if m.Predict(x[i]) == 1 {
					tp++
				} else {
					fn++
				}
			}
		}
		return float64(tp) / float64(tp+fn)
	}
	if recall(bal) <= recall(plain) {
		t.Errorf("balanced recall %v not above plain recall %v", recall(bal), recall(plain))
	}
}

func TestLogRegValidation(t *testing.T) {
	m := NewLogReg(LogRegConfig{})
	if err := m.FitFrame(frameOf(nil), nil, nil); err == nil {
		t.Error("expected error on empty input")
	}
	if err := m.FitFrame(frameOf([][]float64{{1}}), []int{3}, nil); err == nil {
		t.Error("expected error on non-binary label")
	}
	if err := m.FitFrame(frameOf([][]float64{{1}}), []int{0, 1}, nil); err == nil {
		t.Error("expected error on length mismatch")
	}
	m2 := NewLogReg(LogRegConfig{ClassWeight: "wat"})
	if err := m2.FitFrame(frameOf([][]float64{{1}, {2}}), []int{0, 1}, nil); err == nil {
		t.Error("expected error for bad class weight")
	}
}

func TestLogRegUnfitted(t *testing.T) {
	m := NewLogReg(LogRegConfig{})
	if p := m.PredictProba([]float64{1}); p != 0.5 {
		t.Errorf("unfitted proba %v, want 0.5", p)
	}
}

func TestSVCSeparable(t *testing.T) {
	x, y := separable(500, 4, 4)
	m := NewSVC(SVCConfig{C: 10, MaxEpochs: 40, Seed: 4})
	if err := m.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatalf("FitFrame: %v", err)
	}
	if acc := accOf(m.Predict, x, y); acc < 0.93 {
		t.Errorf("accuracy %v, want >= 0.93 on separable data", acc)
	}
}

func TestSVCL1Sparsity(t *testing.T) {
	// With many irrelevant features, L1 should zero out more weights
	// than L2.
	r := rand.New(rand.NewSource(5))
	n, d := 400, 20
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for j := range row {
			row[j] = r.NormFloat64()
		}
		x[i] = row
		if row[0] > 0 {
			y[i] = 1
		}
	}
	l1 := NewSVC(SVCConfig{C: 0.5, Penalty: L1, MaxEpochs: 30, Seed: 5})
	l2 := NewSVC(SVCConfig{C: 0.5, Penalty: L2, MaxEpochs: 30, Seed: 5})
	if err := l1.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	if err := l2.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	// L1 concentrates weight mass on the signal feature: the irrelevant
	// coordinates carry relatively less mass than under L2.
	relNoise := func(w []float64) float64 {
		signal := math.Abs(w[0])
		noise := 0.0
		for _, v := range w[1:] {
			noise += math.Abs(v)
		}
		if signal == 0 {
			return math.Inf(1)
		}
		return noise / signal
	}
	r1, r2 := relNoise(l1.w), relNoise(l2.w)
	if r1 >= r2 {
		t.Errorf("L1 relative noise mass %v not below L2's %v", r1, r2)
	}
}

func TestSVCDecisionSign(t *testing.T) {
	x, y := separable(300, 2, 6)
	m := NewSVC(SVCConfig{C: 10, MaxEpochs: 40, Seed: 6})
	if err := m.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		dec := m.Decision(x[i])
		pred := m.Predict(x[i])
		if (dec >= 0) != (pred == 1) {
			t.Fatal("Predict disagrees with Decision sign")
		}
		p := m.PredictProba(x[i])
		if (p >= 0.5) != (dec >= 0) {
			t.Fatal("PredictProba disagrees with Decision sign")
		}
	}
}

func TestSVCUnfitted(t *testing.T) {
	m := NewSVC(SVCConfig{})
	if m.Predict([]float64{1}) != 0 {
		t.Error("unfitted SVC should predict 0")
	}
	if p := m.PredictProba([]float64{1}); p != 0.5 {
		t.Errorf("unfitted proba %v, want 0.5", p)
	}
}

func TestSVCValidation(t *testing.T) {
	m := NewSVC(SVCConfig{})
	if err := m.FitFrame(frameOf(nil), nil, nil); err == nil {
		t.Error("expected error on empty input")
	}
	m2 := NewSVC(SVCConfig{ClassWeight: "wat"})
	if err := m2.FitFrame(frameOf([][]float64{{1}, {2}}), []int{0, 1}, nil); err == nil {
		t.Error("expected error for bad class weight")
	}
}

func TestSigmoid(t *testing.T) {
	if s := sigmoid(0); math.Abs(s-0.5) > 1e-12 {
		t.Errorf("sigmoid(0) = %v, want 0.5", s)
	}
	if s := sigmoid(100); s <= 0.999 {
		t.Errorf("sigmoid(100) = %v, want ~1", s)
	}
	if s := sigmoid(-100); s >= 0.001 {
		t.Errorf("sigmoid(-100) = %v, want ~0", s)
	}
	// Symmetric: σ(−z) = 1 − σ(z).
	for _, z := range []float64{0.1, 1, 3, 10} {
		if math.Abs(sigmoid(-z)-(1-sigmoid(z))) > 1e-12 {
			t.Errorf("sigmoid not symmetric at %v", z)
		}
	}
}
