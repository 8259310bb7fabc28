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

func BenchmarkAppendStreaming(b *testing.B) {
	vals := make([]float64, 32)
	for j := range vals {
		vals[j] = float64(j)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		f := New(testSchema(32), 0)
		for i := 0; i < 1000; i++ {
			_ = f.Append(1, vals)
		}
	}
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

// BenchmarkAppendFrame appends 25 run-sized dense frames (595 rows at the
// standardized catalog width, as the chunked pipeline does after every
// step) into one in-memory chunked frame of default-height chunks.
func BenchmarkAppendFrame(b *testing.B) {
	run := testFrame(1, 595, 283, 31)
	b.SetBytes(int64(25 * run.Rows() * run.NumCols() * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		w, err := NewChunkedWriter(run.Schema(), 0, "")
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < 25; k++ {
			if err := w.AppendFrame(run); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := w.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}
