package boost

import (
	"math/rand"
	"testing"

	"monitorless/internal/ml/tree"
	"monitorless/internal/parallel"
)

// wideRing spreads the ring problem over d columns (extra noise features)
// with enough rows to push the GBT root node over the feature-parallel
// threshold (len(idx)*len(feats) >= 16384).
func wideRing(n, d int, seed int64) ([][]float64, []int) {
	r := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for j := range row {
			row[j] = 2*r.Float64() - 1
		}
		x[i] = row
		if row[0]*row[0]+row[1]*row[1] < 0.4 {
			y[i] = 1
		}
	}
	return x, y
}

func TestGBTHistLearnsRing(t *testing.T) {
	x, y := ringData(600, 3)
	g := NewGBT(GBTConfig{NumRounds: 40, MaxDepth: 4, Hist: true, Seed: 1})
	if err := g.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatalf("FitFrame: %v", err)
	}
	tx, ty := ringData(300, 4)
	if acc := accOf(g.Predict, tx, ty); acc < 0.9 {
		t.Errorf("hist GBT ring accuracy %v, want >= 0.9", acc)
	}
}

// The hist GBT evaluates candidate features concurrently on large nodes;
// the index-ordered reduction must keep the fitted model bit-identical
// at any worker count.
func TestGBTHistDeterministicAcrossWorkers(t *testing.T) {
	x, y := wideRing(3000, 6, 9)
	probe, _ := wideRing(200, 6, 10)
	run := func(workers int) []float64 {
		parallel.SetDefaultWorkers(workers)
		defer parallel.SetDefaultWorkers(0)
		g := NewGBT(GBTConfig{NumRounds: 15, MaxDepth: 5, Hist: true, Seed: 3})
		if err := g.FitFrame(frameOf(x), y, nil); err != nil {
			t.Fatalf("FitFrame: %v", err)
		}
		out := make([]float64, len(probe))
		for i := range probe {
			out[i] = g.PredictProba(probe[i])
		}
		return out
	}
	one := run(1)
	eight := run(8)
	for i := range one {
		if one[i] != eight[i] {
			t.Fatalf("probe %d: proba %v at 1 worker, %v at 8 workers", i, one[i], eight[i])
		}
	}
}

// Histogram split finding approximates the exact greedy scan; the two
// ensembles must stay close in held-out accuracy.
func TestGBTHistCloseToExact(t *testing.T) {
	x, y := ringData(800, 5)
	tx, ty := ringData(400, 6)
	fit := func(hist bool) *GBT {
		g := NewGBT(GBTConfig{NumRounds: 30, MaxDepth: 4, Hist: hist, Seed: 2})
		if err := g.FitFrame(frameOf(x), y, nil); err != nil {
			t.Fatalf("Fit(hist=%v): %v", hist, err)
		}
		return g
	}
	accE := accOf(fit(false).Predict, tx, ty)
	accH := accOf(fit(true).Predict, tx, ty)
	if accH < accE-0.03 {
		t.Errorf("hist GBT accuracy %.3f trails exact %.3f by more than 0.03", accH, accE)
	}
}

func TestAdaBoostHistLearnsXOR(t *testing.T) {
	x, y := xorData(600, 4)
	a := NewAdaBoost(AdaBoostConfig{
		NumEstimators: 30,
		Variant:       SAMME,
		TreeSplitter:  tree.Hist,
		TreeBins:      128,
		Seed:          1,
	})
	if err := a.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatalf("FitFrame: %v", err)
	}
	if acc := accOf(a.Predict, x, y); acc < 0.93 {
		t.Errorf("hist AdaBoost accuracy %v, want >= 0.93", acc)
	}
}

// The per-stage prediction pass is chunked across the pool; weight
// updates consume it in row order, so the fitted ensemble must be
// bit-identical at any worker count (both variants, both splitters).
func TestAdaBoostDeterministicAcrossWorkers(t *testing.T) {
	x, y := xorData(1500, 6) // > one 512-row prediction chunk
	probe, _ := xorData(150, 7)
	for _, variant := range []AdaVariant{SAMME, SAMMER} {
		for _, sp := range []tree.Splitter{tree.Best, tree.Hist} {
			run := func(workers int) []float64 {
				parallel.SetDefaultWorkers(workers)
				defer parallel.SetDefaultWorkers(0)
				a := NewAdaBoost(AdaBoostConfig{
					NumEstimators: 10,
					Variant:       variant,
					TreeSplitter:  sp,
					Seed:          5,
				})
				if err := a.FitFrame(frameOf(x), y, nil); err != nil {
					t.Fatalf("FitFrame: %v", err)
				}
				out := make([]float64, len(probe))
				for i := range probe {
					out[i] = a.PredictProba(probe[i])
				}
				return out
			}
			one := run(1)
			eight := run(8)
			for i := range one {
				if one[i] != eight[i] {
					t.Fatalf("variant %v splitter %v probe %d: %v at 1 worker, %v at 8",
						variant, sp, i, one[i], eight[i])
				}
			}
		}
	}
}
