package forest

import (
	"math/rand"
	"sort"
	"testing"

	"monitorless/internal/frame"
	"monitorless/internal/ml"
	"monitorless/internal/ml/tree"
)

func benchData(n, d int) ([][]float64, []int) {
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

func benchFit(b *testing.B, sp tree.Splitter) {
	x, y := benchData(2000, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := New(Config{NumTrees: 30, MinSamplesLeaf: 10, Splitter: sp, Seed: int64(i)})
		if err := f.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForestFit(b *testing.B)     { benchFit(b, tree.Best) }
func BenchmarkForestFitHist(b *testing.B) { benchFit(b, tree.Hist) }

func BenchmarkForestPredict(b *testing.B) {
	x, y := benchData(2000, 50)
	f := New(Config{NumTrees: 30, MinSamplesLeaf: 10, Seed: 1})
	if err := f.Fit(x, y); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictProba(x[i%len(x)])
	}
}

// benchPredictBatch drives the batch path over the whole frame through
// the caller-owned-buffer entry point, so steady state allocates nothing
// and ns/row measures traversal, not make([]float64, n) churn.
func benchPredictBatch(b *testing.B, f *Forest, fr *frame.Frame) {
	b.Helper()
	dst := make([]float64, fr.Rows())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictProbaFrameRowsInto(fr, nil, dst)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(fr.Rows()), "ns/row")
}

// BenchmarkForestPredictBatch measures the float SoA batch path over a
// whole frame; ns/row is the number to compare against
// BenchmarkForestPredict (per-row) and the Quant variants below.
func BenchmarkForestPredictBatch(b *testing.B) {
	x, y := benchData(2000, 50)
	f := New(Config{NumTrees: 30, MinSamplesLeaf: 10, Seed: 1})
	if err := f.Fit(x, y); err != nil {
		b.Fatal(err)
	}
	benchPredictBatch(b, f, ml.FrameOf(x))
}

// benchHistForest fits the histogram-splitter twin of the forest above:
// same data, same ensemble shape, compiled quantized predictor installed
// by the fit itself.
func benchHistForest(b testing.TB) (*Forest, [][]float64) {
	b.Helper()
	x, y := benchData(2000, 50)
	f := New(Config{NumTrees: 30, MinSamplesLeaf: 10, Splitter: tree.Hist, Seed: 1})
	if err := f.Fit(x, y); err != nil {
		b.Fatal(err)
	}
	if f.Quant() == nil {
		b.Fatal("hist fit did not compile a quantized predictor")
	}
	return f, x
}

// BenchmarkForestPredictBatchHistFloat is the float tree walk over a
// hist-trained forest — the before side of the quantized comparison on
// the exact same trees.
func BenchmarkForestPredictBatchHistFloat(b *testing.B) {
	f, x := benchHistForest(b)
	f.DropQuant()
	benchPredictBatch(b, f, ml.FrameOf(x))
}

// BenchmarkForestPredictBatchQuant is the compiled uint8-code path over
// the same hist-trained forest: row blocks quantized once, trees walked
// over the resident code slab.
func BenchmarkForestPredictBatchQuant(b *testing.B) {
	f, x := benchHistForest(b)
	benchPredictBatch(b, f, ml.FrameOf(x))
}

// BenchmarkForestPredictBatchQuantSerial pins the single-worker quant
// path (the serving-shard regime, where batches are one block and the
// walk runs inline with zero closure allocation).
func BenchmarkForestPredictBatchQuantSerial(b *testing.B) {
	f, x := benchHistForest(b)
	f.Quant().SetParallelism(1)
	benchPredictBatch(b, f, ml.FrameOf(x))
}

// TestQuantPredictSpeedup gates the quantized walk's reason to exist: on
// the same hist-trained forest and frame as the benchmarks above it must
// score a row at least 1.5× faster than the float walk (measured 2.83×).
// The two are alternated so drift in the host's speed hits both sides,
// and the medians of three runs each are compared.
func TestQuantPredictSpeedup(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing gate: skipped under -short and the race detector")
	}
	f, x := benchHistForest(t)
	ref := *f
	ref.DropQuant()
	fr := ml.FrameOf(x)
	nsPerRow := func(f *Forest) float64 {
		r := testing.Benchmark(func(b *testing.B) { benchPredictBatch(b, f, fr) })
		return float64(r.NsPerOp()) / float64(fr.Rows())
	}
	floatNs, quantNs := make([]float64, 3), make([]float64, 3)
	for i := range floatNs {
		floatNs[i] = nsPerRow(&ref)
		quantNs[i] = nsPerRow(f)
	}
	sort.Float64s(floatNs)
	sort.Float64s(quantNs)
	speedup := floatNs[1] / quantNs[1]
	t.Logf("float walk %.0f ns/row, quantized walk %.0f ns/row: %.2fx", floatNs[1], quantNs[1], speedup)
	if speedup < 1.5 {
		t.Fatalf("quantized walk is only %.2fx faster than the float walk on the same trees, want >= 1.5x", speedup)
	}
}
