package label

import (
	"math/rand"
	"testing"
)

func rampCurve(n int, knee, maxLoad, noise float64, seed int64) (load, kpi []float64) {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		x := maxLoad * float64(i+1) / float64(n)
		y := x
		if x > knee {
			y = knee + 0.05*(x-knee)
		}
		load = append(load, x)
		kpi = append(kpi, y*(1+noise*r.NormFloat64()))
	}
	return load, kpi
}

func TestDiscoverThresholdFindsKnee(t *testing.T) {
	load, kpi := rampCurve(400, 700, 1000, 0.02, 1)
	lab, res, err := DiscoverThreshold(load, kpi, Options{})
	if err != nil {
		t.Fatalf("DiscoverThreshold: %v", err)
	}
	if res == nil {
		t.Fatal("expected diagnostics")
	}
	if !lab.Saturates() {
		t.Fatal("expected a saturating labeler")
	}
	if lab.Threshold < 600 || lab.Threshold > 800 {
		t.Errorf("threshold %v, want ~700", lab.Threshold)
	}
}

func TestDiscoverThresholdNoKnee(t *testing.T) {
	// Linear throughput (never saturates): threshold must be +Inf.
	n := 300
	load := make([]float64, n)
	kpi := make([]float64, n)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		load[i] = float64(i + 1)
		kpi[i] = load[i] * (1 + 0.02*r.NormFloat64())
	}
	lab, _, err := DiscoverThreshold(load, kpi, Options{})
	if err != nil {
		t.Fatalf("DiscoverThreshold: %v", err)
	}
	if lab.Saturates() {
		t.Errorf("linear curve yielded threshold %v, want +Inf", lab.Threshold)
	}
	for _, v := range kpi {
		if lab.Label(v) != 0 {
			t.Fatal("no-knee labeler must label everything 0")
		}
	}
}

func TestDiscoverThresholdValidation(t *testing.T) {
	if _, _, err := DiscoverThreshold([]float64{1}, []float64{1, 2}, Options{}); err == nil {
		t.Error("expected length mismatch error")
	}
	flat := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	same := []float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 5}
	if _, _, err := DiscoverThreshold(flat, same, Options{}); err == nil {
		t.Error("expected no-spread error for a flat KPI")
	}
}

func TestLabelerBoundary(t *testing.T) {
	l := Labeler{Threshold: 10}
	if l.Label(10) != 0 {
		t.Error("KPI equal to Υ is 'no saturation' per the paper")
	}
	if l.Label(10.01) != 1 {
		t.Error("KPI above Υ is saturated")
	}
}
