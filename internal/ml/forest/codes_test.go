package forest

import (
	"testing"

	"monitorless/internal/ml"
	"monitorless/internal/ml/tree"
)

// transposeCols turns row-major samples into the column-major layout the
// fused ingest path hands QuantizeBatch.
func transposeCols(x [][]float64) [][]float64 {
	cols := make([][]float64, len(x[0]))
	for j := range cols {
		c := make([]float64, len(x))
		for i := range x {
			c[i] = x[i][j]
		}
		cols[j] = c
	}
	return cols
}

// TestPredictCodesBitIdentical: quantizing feature columns into a
// caller-owned slab and walking it must reproduce the regular quantized
// predict (and therefore the float walk) bit for bit, across multiple
// blocks and at any block-level parallelism.
func TestPredictCodesBitIdentical(t *testing.T) {
	x, y := quantData(2100, 7) // 9 blocks at 256 rows/block
	f := fitQuantForest(t, x, y, tree.Hist)
	fr := ml.FrameOf(x)
	q := f.Quant()
	want := floatProbs(f, fr, nil)

	cols := transposeCols(x)
	var codes []uint8
	var err error
	codes, err = q.QuantizeBatch(cols, len(x), codes)
	if err != nil {
		t.Fatalf("quantize batch: %v", err)
	}
	out := make([]float64, len(x))
	for _, w := range []int{1, 2, 4, 8, 0} {
		q.SetParallelism(w)
		if err := q.PredictProbaCodes(codes, out); err != nil {
			t.Fatalf("predict codes (par %d): %v", w, err)
		}
		assertBitIdentical(t, "codes vs float", want, out)
	}
	q.SetParallelism(0)

	// Short batches (single partial block — the serving shard regime).
	short := 37
	codes, err = q.QuantizeBatch(cols, short, codes)
	if err != nil {
		t.Fatalf("quantize short batch: %v", err)
	}
	outS := make([]float64, short)
	if err := q.PredictProbaCodes(codes, outS); err != nil {
		t.Fatalf("predict short codes: %v", err)
	}
	assertBitIdentical(t, "short batch", want[:short], outS)
}

// TestPredictCodesRejects pins the refusal paths: wrong column counts,
// rows beyond the columns, and undersized slabs.
func TestPredictCodesRejects(t *testing.T) {
	xh, yh := quantData(400, 3)
	fh := fitQuantForest(t, xh, yh, tree.Hist)
	qh := fh.Quant()
	cols := transposeCols(xh)
	if _, err := qh.QuantizeBatch(cols[:2], len(xh), nil); err == nil {
		t.Fatal("wrong column count must fail")
	}
	if _, err := qh.QuantizeBatch(cols, len(xh)+1, nil); err == nil {
		t.Fatal("rows beyond column length must fail")
	}
	codes, err := qh.QuantizeBatch(cols, len(xh), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := qh.PredictProbaCodes(codes[:len(codes)-1], make([]float64, len(xh))); err == nil {
		t.Fatal("undersized slab must fail")
	}
}

// TestPredictCodesAllocations: the fused path with caller-owned slab and
// output must allocate nothing once the slab is sized — it is the serving
// ingest hot loop.
func TestPredictCodesAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	x, y := quantData(600, 5)
	f := fitQuantForest(t, x, y, tree.Hist)
	q := f.Quant()
	q.SetParallelism(1)
	defer q.SetParallelism(0)
	cols := transposeCols(x)
	codes, err := q.QuantizeBatch(cols, len(x), nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(x))
	if n := testing.AllocsPerRun(50, func() {
		var err error
		codes, err = q.QuantizeBatch(cols, len(x), codes)
		if err != nil {
			t.Fatal(err)
		}
		if err := q.PredictProbaCodes(codes, out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("fused quantize+walk: %v allocs/op, want 0", n)
	}
}
