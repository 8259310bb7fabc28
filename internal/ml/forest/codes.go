// Code-slab entry points: the fused serving ingest path quantizes
// engineered feature columns straight into a caller-owned block-tiled
// code slab (QuantizeBatch) and walks it (PredictProbaCodes), skipping
// the per-block quantize stage of the regular predict path. The slab
// layout, the quantization kernel and the block walk are exactly the ones
// runBlock uses, so the fused route is bit-identical to accumCols — same
// codes, same walk, same tree accumulation order, same final division.
package forest

import (
	"context"
	"fmt"

	"monitorless/internal/parallel"
)

// QuantizeBatch codes n rows of engineered feature columns (cols[j][k] =
// feature j of row k, the layout features.BatchScratch.Cols produces)
// into the block-tiled column-major slab PredictProbaCodes walks: block
// b's codes for slot si start at (b*NumSlots+si)*256. Only the columns
// some node actually tests are coded. dst is grown as
// needed and returned; rows past n within the last block are left stale,
// exactly like runBlock's tail blocks.
func (q *QuantForest) QuantizeBatch(cols [][]float64, n int, dst []uint8) ([]uint8, error) {
	if len(cols) != q.nFeatures {
		return dst, fmt.Errorf("forest: quantize batch: %d feature columns, compiled for %d", len(cols), q.nFeatures)
	}
	ns := len(q.slotCols)
	nb := (n + quantBlockRows - 1) / quantBlockRows
	need := nb * ns * quantBlockRows
	if cap(dst) < need {
		dst = make([]uint8, need)
	}
	dst = dst[:need]
	for _, col := range q.slotCols {
		if len(cols[col]) < n {
			return dst, fmt.Errorf("forest: quantize batch: column %d has %d rows, batch has %d", col, len(cols[col]), n)
		}
	}
	for b := 0; b < nb; b++ {
		lo := b * quantBlockRows
		hi := min(lo+quantBlockRows, n)
		slab := dst[b*ns*quantBlockRows:]
		for si, col := range q.slotCols {
			quantizeCol(q.edges[col], &q.grids[si], cols[col][lo:hi], slab[si*quantBlockRows:])
		}
	}
	return dst, nil
}

// PredictProbaCodes accumulates mean leaf probabilities over a
// pre-quantized code slab (QuantizeBatch layout) for len(out) rows.
// Blocks fan out under the same parallelism knob as the regular predict
// path and write disjoint out ranges, so the result is bit-identical at
// any worker count — and bit-identical to accumCols over the same rows.
func (q *QuantForest) PredictProbaCodes(codes []uint8, out []float64) error {
	n := len(out)
	ns := len(q.slotCols)
	nb := (n + quantBlockRows - 1) / quantBlockRows
	if need := nb * ns * quantBlockRows; len(codes) < need {
		return fmt.Errorf("forest: predict codes: slab has %d bytes, %d rows need %d", len(codes), n, need)
	}
	for i := range out {
		out[i] = 0
	}
	workers := q.par
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	if workers == 1 || nb == 1 {
		for b := 0; b < nb; b++ {
			q.walkBlockCodes(codes, b, ns, out)
		}
	} else {
		// fn never returns an error and the context never cancels, so the
		// pool error is structurally nil.
		_ = parallel.Do(context.Background(), workers, nb, func(b int) error {
			q.walkBlockCodes(codes, b, ns, out)
			return nil
		})
	}
	nt := float64(len(q.trees))
	for i := range out {
		out[i] /= nt
	}
	return nil
}

// walkBlockCodes walks block b of the slab into its disjoint out rows.
func (q *QuantForest) walkBlockCodes(codes []uint8, b, ns int, out []float64) {
	lo := b * quantBlockRows
	hi := min(lo+quantBlockRows, len(out))
	q.walkBlock(codes[b*ns*quantBlockRows:], out[lo:hi])
}
