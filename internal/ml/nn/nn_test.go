package nn

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
			fr.Set(i, j, v)
		}
	}
	return fr
}

func blobs(n int, seed int64) ([][]float64, []int) {
	r := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := r.Intn(2)
		cx := -1.0
		if c == 1 {
			cx = 1
		}
		x[i] = []float64{cx + 0.4*r.NormFloat64(), 0.4 * r.NormFloat64()}
		y[i] = c
	}
	return x, y
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

func accOf(n *Net, x [][]float64, y []int) float64 {
	c := 0
	for i := range x {
		if n.Predict(x[i]) == y[i] {
			c++
		}
	}
	return float64(c) / float64(len(x))
}

func TestNetLearnsBlobs(t *testing.T) {
	x, y := blobs(500, 1)
	n := New(Config{Hidden1: 16, Hidden2: 8, Epochs: 40, Seed: 1})
	if err := n.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatalf("FitFrame: %v", err)
	}
	if acc := accOf(n, x, y); acc < 0.95 {
		t.Errorf("accuracy %v, want >= 0.95", acc)
	}
}

func TestNetLearnsXOR(t *testing.T) {
	x, y := xorData(800, 2)
	n := New(Config{Hidden1: 32, Hidden2: 16, Epochs: 150, LearningRate: 0.05, Seed: 2})
	if err := n.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatalf("FitFrame: %v", err)
	}
	if acc := accOf(n, x, y); acc < 0.9 {
		t.Errorf("XOR accuracy %v, want >= 0.9 (MLP should solve XOR)", acc)
	}
}

func TestNetSoftmaxHead(t *testing.T) {
	x, y := blobs(400, 3)
	n := New(Config{Hidden1: 16, Hidden2: 8, Act3: Softmax, Epochs: 40, Seed: 3})
	if err := n.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatalf("FitFrame: %v", err)
	}
	if acc := accOf(n, x, y); acc < 0.95 {
		t.Errorf("softmax accuracy %v, want >= 0.95", acc)
	}
	// Softmax output is a probability.
	for i := 0; i < 20; i++ {
		p := n.PredictProba(x[i])
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("proba %v out of range", p)
		}
	}
}

func TestNetActivationGrid(t *testing.T) {
	// Every activation combination from the paper's Table 2 grid must
	// train without blowing up.
	x, y := blobs(150, 4)
	for _, a1 := range []Activation{ReLU, Sigmoid, Linear} {
		for _, a3 := range []Activation{Sigmoid, Softmax, Linear, ReLU} {
			n := New(Config{Hidden1: 8, Hidden2: 4, Act1: a1, Act2: ReLU, Act3: a3, Epochs: 10, Seed: 4})
			if err := n.FitFrame(frameOf(x), y, nil); err != nil {
				t.Errorf("act1=%s act3=%s: %v", a1, a3, err)
				continue
			}
			p := n.PredictProba(x[0])
			if math.IsNaN(p) || p < 0 || p > 1 {
				t.Errorf("act1=%s act3=%s produced invalid proba %v", a1, a3, p)
			}
		}
	}
}

func TestNetDeterministic(t *testing.T) {
	x, y := blobs(200, 5)
	n1 := New(Config{Hidden1: 8, Hidden2: 4, Epochs: 5, Seed: 42})
	n2 := New(Config{Hidden1: 8, Hidden2: 4, Epochs: 5, Seed: 42})
	if err := n1.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	if err := n2.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if n1.PredictProba(x[i]) != n2.PredictProba(x[i]) {
			t.Fatal("same seed produced different networks")
		}
	}
}

func TestNetValidation(t *testing.T) {
	n := New(Config{})
	if err := n.FitFrame(frameOf(nil), nil, nil); err == nil {
		t.Error("expected error on empty input")
	}
}

func TestNetUnfitted(t *testing.T) {
	n := New(Config{})
	if p := n.PredictProba([]float64{1, 2}); p != 0.5 {
		t.Errorf("unfitted proba %v, want 0.5", p)
	}
}

func TestNetDimensionPanic(t *testing.T) {
	x, y := blobs(100, 6)
	n := New(Config{Hidden1: 4, Hidden2: 4, Epochs: 2, Seed: 6})
	if err := n.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong input dimensionality")
		}
	}()
	n.PredictProba([]float64{1})
}
