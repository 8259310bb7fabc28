package smooth

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewSavGolValidation(t *testing.T) {
	cases := []struct {
		window, order int
		wantErr       bool
	}{
		{5, 2, false},
		{7, 3, false},
		{1, 0, false},
		{4, 2, true},  // even window
		{0, 0, true},  // zero window
		{-3, 1, true}, // negative window
		{5, 5, true},  // order >= window
		{5, -1, true}, // negative order
	}
	for _, tc := range cases {
		_, err := NewSavGol(tc.window, tc.order)
		if (err != nil) != tc.wantErr {
			t.Errorf("NewSavGol(%d, %d) err=%v, wantErr=%v", tc.window, tc.order, err, tc.wantErr)
		}
	}
}

// A Savitzky-Golay filter of order d reproduces polynomials of degree <= d
// exactly, including at the edges.
func TestSavGolReproducesPolynomials(t *testing.T) {
	cases := []struct {
		name          string
		window, order int
		poly          func(x float64) float64
	}{
		{"constant", 5, 2, func(x float64) float64 { return 4.2 }},
		{"linear", 5, 2, func(x float64) float64 { return 2*x - 1 }},
		{"quadratic", 7, 2, func(x float64) float64 { return 0.5*x*x - 3*x + 2 }},
		{"cubic", 9, 3, func(x float64) float64 { return x*x*x - x }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			y := make([]float64, 40)
			for i := range y {
				y[i] = tc.poly(float64(i))
			}
			out, err := Smooth(y, tc.window, tc.order)
			if err != nil {
				t.Fatalf("Smooth: %v", err)
			}
			for i := range y {
				if math.Abs(out[i]-y[i]) > 1e-6*(1+math.Abs(y[i])) {
					t.Fatalf("point %d: got %v, want %v", i, out[i], y[i])
				}
			}
		})
	}
}

func TestSavGolReducesNoise(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	n := 200
	clean := make([]float64, n)
	noisy := make([]float64, n)
	for i := range clean {
		clean[i] = math.Sin(float64(i) / 20)
		noisy[i] = clean[i] + 0.3*r.NormFloat64()
	}
	out, err := Smooth(noisy, 21, 2)
	if err != nil {
		t.Fatalf("Smooth: %v", err)
	}
	mse := func(a []float64) float64 {
		s := 0.0
		for i := range a {
			d := a[i] - clean[i]
			s += d * d
		}
		return s / float64(n)
	}
	if mse(out) >= mse(noisy)/2 {
		t.Errorf("smoothing did not reduce noise: before=%v after=%v", mse(noisy), mse(out))
	}
}

func TestSavGolShortSeries(t *testing.T) {
	if _, err := Smooth([]float64{1, 2, 3}, 5, 2); err == nil {
		t.Fatal("expected error for series shorter than window")
	}
	out, err := Smooth(nil, 5, 2)
	if err != nil || out != nil {
		t.Fatalf("Smooth(nil) = %v, %v; want nil, nil", out, err)
	}
}

func TestSavGolPreservesLength(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(100)
		y := make([]float64, n)
		for i := range y {
			y[i] = r.Float64()
		}
		out, err := Smooth(y, 9, 2)
		if err != nil {
			return false
		}
		return len(out) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: filter coefficients of the identity window (window=1) return
// the input unchanged.
func TestSavGolIdentityWindow(t *testing.T) {
	y := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	out, err := Smooth(y, 1, 0)
	if err != nil {
		t.Fatalf("Smooth: %v", err)
	}
	for i := range y {
		if math.Abs(out[i]-y[i]) > 1e-12 {
			t.Fatalf("identity window changed data at %d: %v != %v", i, out[i], y[i])
		}
	}
}
