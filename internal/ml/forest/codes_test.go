package forest

import (
	"testing"

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
// caller-owned slab and walking it must reproduce the regular compiled
// predict (and therefore the float walk) bit for bit, across multiple
// tasks and at any task-level parallelism.
func TestPredictCodesBitIdentical(t *testing.T) {
	x, y := quantData(2100, 7) // 66 blocks of 32 rows, 9 tasks of 256 rows
	f := fitQuantForest(t, x, y, tree.Hist)
	fr := frameOf(x)
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

	// Short batches (one task, its last block partial — the serving shard
	// regime).
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
// rows beyond the columns, and undersized or misaligned slabs.
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
	if err := qh.PredictProbaCodes(codes[1:], make([]float64, 32)); err == nil {
		t.Fatal("a slab not 8-byte aligned must fail")
	}
}

// TestPredictCodesAllocations: the fused path with caller-owned slab and
// output must allocate nothing once the slab is sized — it is the serving
// ingest hot loop — serially over a multi-task batch, and at default
// parallelism over a 256-row batch: one task, the shard regime, which
// walks inline (fanning out per 32-row block would allocate here).
func TestPredictCodesAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	x, y := quantData(600, 5)
	f := fitQuantForest(t, x, y, tree.Hist)
	q := f.Quant()
	cols := transposeCols(x)
	for _, tc := range []struct {
		name   string
		par, n int
	}{
		{"serial, 600 rows", 1, len(x)},
		{"default parallelism, 256-row shard", 0, 256},
	} {
		q.SetParallelism(tc.par)
		codes, err := q.QuantizeBatch(cols, tc.n, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, tc.n)
		if n := testing.AllocsPerRun(50, func() {
			var err error
			codes, err = q.QuantizeBatch(cols, tc.n, codes)
			if err != nil {
				t.Fatal(err)
			}
			if err := q.PredictProbaCodes(codes, out); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: fused key+walk: %v allocs/op, want 0", tc.name, n)
		}
	}
	q.SetParallelism(0)
}
