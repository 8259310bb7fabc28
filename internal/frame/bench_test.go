package frame

import (
	"math/rand"
	"testing"
)

// benchRows builds the row-oriented equivalent of a frame, for the
// row-vs-columnar scan comparison (BenchmarkColumnScanRowOriented against
// BenchmarkColumnScanColumnar).
func benchRows(rows, d int, seed int64) [][]float64 {
	r := rand.New(rand.NewSource(seed))
	x := make([][]float64, rows)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = r.NormFloat64()
		}
	}
	return x
}

func BenchmarkColumnScanColumnar(b *testing.B) {
	f := testFrame(1, 4000, 64, 21)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for n := 0; n < b.N; n++ {
		for j := 0; j < f.NumCols(); j++ {
			col := f.Col(j)
			var s float64
			for _, v := range col {
				s += v
			}
			sink += s
		}
	}
	_ = sink
}

func BenchmarkColumnScanRowOriented(b *testing.B) {
	x := benchRows(4000, 64, 21)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for n := 0; n < b.N; n++ {
		for j := 0; j < 64; j++ {
			var s float64
			for i := range x {
				s += x[i][j]
			}
			sink += s
		}
	}
	_ = sink
}

func BenchmarkRowRangeView(b *testing.B) {
	f := testFrame(10, 400, 32, 22)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for n := 0; n < b.N; n++ {
		v := f.RowRange(100, 3900)
		sink += v.Rows()
	}
	_ = sink
}
