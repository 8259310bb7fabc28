package ml

import (
	"math"
	"slices"
	"testing"

	"monitorless/internal/frame"
)

// frameOf builds a frame from row-major values, with labels y (may be nil).
func frameOf(x [][]float64, y []int) *frame.Frame {
	d := 0
	if len(x) > 0 {
		d = len(x[0])
	}
	fr := frame.NewDense(make(frame.Schema, d), len(x), nil, y)
	for i, row := range x {
		for j, v := range row {
			fr.Col(j)[i] = v
		}
	}
	return fr
}

func TestValidateFrame(t *testing.T) {
	two := [][]float64{{1, 2}, {3, 4}}
	cases := []struct {
		name    string
		fr      *frame.Frame
		y       []int
		rows    []int
		wantErr bool
	}{
		{"ok", frameOf(two, nil), []int{0, 1}, nil, false},
		{"frame labels", frameOf(two, []int{1, 0}), nil, nil, false},
		{"row subset", frameOf(two, nil), []int{0, 1}, []int{1}, false},
		{"empty", frameOf(nil, nil), nil, nil, true},
		{"nil frame", nil, nil, nil, true},
		{"mismatch", frameOf([][]float64{{1}}, nil), []int{0, 1}, nil, true},
		{"no labels", frameOf(two, nil), nil, nil, true},
		{"zero features", frameOf([][]float64{{}}, nil), []int{0}, nil, true},
		{"bad label", frameOf([][]float64{{1}}, nil), []int{2}, nil, true},
		{"negative label", frameOf([][]float64{{1}}, nil), []int{-1}, nil, true},
		{"empty rows", frameOf(two, nil), []int{0, 1}, []int{}, true},
		{"row out of range", frameOf(two, nil), []int{0, 1}, []int{2}, true},
		{"negative row", frameOf(two, nil), []int{0, 1}, []int{-1}, true},
		{"bad label in rows", frameOf(two, nil), []int{0, 2}, []int{1}, true},
		{"bad label outside rows", frameOf(two, nil), []int{0, 2}, []int{0}, false},
		{"NaN", frameOf([][]float64{{1, math.NaN()}, {3, 4}}, nil), []int{0, 1}, nil, true},
		{"+Inf", frameOf([][]float64{{1, 2}, {math.Inf(1), 4}}, nil), []int{0, 1}, nil, true},
		{"-Inf", frameOf([][]float64{{1, 2}, {3, math.Inf(-1)}}, nil), []int{0, 1}, nil, true},
		{"NaN outside rows", frameOf([][]float64{{1, math.NaN()}, {3, 4}}, nil), []int{0, 1}, []int{1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			y, err := ValidateFrame(tc.fr, tc.y, tc.rows)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err=%v, wantErr=%v", err, tc.wantErr)
			}
			if err != nil {
				return
			}
			want := tc.fr.Rows()
			if tc.rows != nil {
				want = len(tc.rows)
			}
			if len(y) != want {
				t.Errorf("resolved %d labels for %d training rows", len(y), want)
			}
		})
	}

	// A row subset gets its compact labels: ty[p] is the label of rows[p],
	// repeats included.
	ty, err := ValidateFrame(frameOf([][]float64{{1}, {2}, {3}}, []int{0, 1, 1}), nil, []int{2, 0, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 0, 1, 1}; !slices.Equal(ty, want) {
		t.Errorf("compact labels = %v, want %v", ty, want)
	}
}

func TestTrainingRowsGathers(t *testing.T) {
	fr := frameOf([][]float64{{1, 2}, {3, 4}, {5, 6}}, []int{0, 1, 1})
	x, y, err := TrainingRows(fr, nil, []int{2, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{5, 6}, {1, 2}, {5, 6}}
	wantY := []int{1, 0, 1}
	for p := range want {
		for j := range want[p] {
			if x[p][j] != want[p][j] {
				t.Errorf("x[%d][%d] = %v, want %v", p, j, x[p][j], want[p][j])
			}
		}
		if y[p] != wantY[p] {
			t.Errorf("y[%d] = %d, want %d", p, y[p], wantY[p])
		}
	}
	x, y, err = TrainingRows(fr, nil, nil)
	if err != nil || len(x) != 3 || x[1][1] != 4 || y[2] != 1 {
		t.Errorf("all rows: x=%v y=%v err=%v", x, y, err)
	}
	if _, _, err := TrainingRows(frameOf([][]float64{{math.NaN()}}, []int{0}), nil, nil); err == nil {
		t.Error("TrainingRows accepted a NaN frame")
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
