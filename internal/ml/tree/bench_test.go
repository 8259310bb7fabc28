package tree

import (
	"math/rand"
	"testing"
)

func benchTreeData(n, d int) ([][]float64, []int) {
	r := rand.New(rand.NewSource(3))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for j := range row {
			row[j] = r.NormFloat64()
		}
		x[i] = row
		if row[0]+0.3*row[1] > 0.2 {
			y[i] = 1
		}
	}
	return x, y
}

func benchTreeFit(b *testing.B, n, d int, cfg Config) {
	x, y := benchTreeData(n, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := New(cfg)
		if err := t.FitFrame(frameOf(x), y, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeFitExact times the exact splitter on a gini tree over 2 000
// rows × 50 columns, and on an entropy tree the size of one RF-filter
// run (595 rows × 283 columns, unit weights, depth 5): the second reads
// entropy from the unit-weight table.
func BenchmarkTreeFitExact(b *testing.B) {
	b.Run("gini-2000x50", func(b *testing.B) {
		benchTreeFit(b, 2000, 50, Config{MinSamplesLeaf: 10})
	})
	b.Run("entropy-unit-595x283", func(b *testing.B) {
		benchTreeFit(b, 595, 283, Config{MaxDepth: 5, MinSamplesLeaf: 5, Criterion: Entropy})
	})
}

func BenchmarkTreeFitHist(b *testing.B) {
	benchTreeFit(b, 2000, 50, Config{MinSamplesLeaf: 10, Splitter: Hist})
}
