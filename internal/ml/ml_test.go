package ml

import (
	"math"
	"testing"
)

func TestValidateTrainingSet(t *testing.T) {
	cases := []struct {
		name    string
		x       [][]float64
		y       []int
		wantD   int
		wantErr bool
	}{
		{"ok", [][]float64{{1, 2}, {3, 4}}, []int{0, 1}, 2, false},
		{"empty", nil, nil, 0, true},
		{"mismatch", [][]float64{{1}}, []int{0, 1}, 0, true},
		{"zero features", [][]float64{{}}, []int{0}, 0, true},
		{"ragged", [][]float64{{1, 2}, {3}}, []int{0, 1}, 0, true},
		{"bad label", [][]float64{{1}}, []int{2}, 0, true},
		{"negative label", [][]float64{{1}}, []int{-1}, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := ValidateTrainingSet(tc.x, tc.y)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err=%v, wantErr=%v", err, tc.wantErr)
			}
			if !tc.wantErr && d != tc.wantD {
				t.Errorf("d=%d, want %d", d, tc.wantD)
			}
		})
	}
}

func TestClassWeightsUniform(t *testing.T) {
	w, err := ClassWeights([]int{0, 1, 1}, "")
	if err != nil {
		t.Fatalf("ClassWeights: %v", err)
	}
	for i, v := range w {
		if v != 1 {
			t.Errorf("w[%d] = %v, want 1", i, v)
		}
	}
}

func TestClassWeightsBalanced(t *testing.T) {
	// 3 zeros, 1 one: w0 = 4/6, w1 = 4/2.
	y := []int{0, 0, 0, 1}
	w, err := ClassWeights(y, "balanced")
	if err != nil {
		t.Fatalf("ClassWeights: %v", err)
	}
	if math.Abs(w[0]-4.0/6.0) > 1e-12 || math.Abs(w[3]-2.0) > 1e-12 {
		t.Errorf("weights = %v", w)
	}
	// Balanced weights make both classes contribute equally.
	var s0, s1 float64
	for i, label := range y {
		if label == 1 {
			s1 += w[i]
		} else {
			s0 += w[i]
		}
	}
	if math.Abs(s0-s1) > 1e-9 {
		t.Errorf("class weight sums differ: %v vs %v", s0, s1)
	}
}

func TestClassWeightsSingleClass(t *testing.T) {
	w, err := ClassWeights([]int{1, 1}, "balanced")
	if err != nil {
		t.Fatalf("ClassWeights: %v", err)
	}
	for _, v := range w {
		if v != 1 {
			t.Errorf("single-class weights should fall back to uniform, got %v", w)
		}
	}
}

func TestClassWeightsUnknownMode(t *testing.T) {
	if _, err := ClassWeights([]int{0, 1}, "bogus"); err == nil {
		t.Fatal("expected error for unknown mode")
	}
}
