// Key-slab entry points: the fused serving ingest path keys engineered
// feature columns straight into a caller-owned slab (QuantizeBatch) and
// walks it (PredictProbaCodes), so the key stage can be timed apart from
// the walk. Every compiled forest takes this path, whichever splitter
// trained it. The slab layout, the key loop and the walk are exactly the
// ones runTask uses, so the fused route is bit-identical to accumCols —
// same keys, same walk, same tree accumulation order, same final
// division.
//
// The slab is typed []uint8 for its callers, but it holds 8-byte order
// keys: QuantizeBatch allocates it from a []uint64, so it is aligned,
// and block b's keys for slot si are the 256 bytes at (b*NumSlots+si)*256,
// row r's key at +r*8 (32 rows per block).
package forest

import (
	"context"
	"fmt"
	"unsafe"

	"monitorless/internal/parallel"
)

// QuantizeBatch keys n rows of engineered feature columns (cols[j][k] =
// feature j of row k, the layout features.BatchScratch.Cols produces)
// into the block-tiled column-major slab PredictProbaCodes walks. Only
// the columns some node actually tests are keyed. dst is reused when its
// capacity suffices and it is 8-byte aligned (any slab this returned
// is), reallocated otherwise, and returned; rows past n within the last
// block are left stale, exactly like runTask's tail blocks.
func (q *QuantForest) QuantizeBatch(cols [][]float64, n int, dst []uint8) ([]uint8, error) {
	if len(cols) != q.nFeatures {
		return dst, fmt.Errorf("forest: quantize batch: %d feature columns, compiled for %d", len(cols), q.nFeatures)
	}
	for _, col := range q.slotCols {
		if len(cols[col]) < n {
			return dst, fmt.Errorf("forest: quantize batch: column %d has %d rows, batch has %d", col, len(cols[col]), n)
		}
	}
	ns := len(q.slotCols)
	nb := (n + keyBlockRows - 1) / keyBlockRows
	need := nb * ns * keyColBytes
	if cap(dst) < need || uintptr(unsafe.Pointer(unsafe.SliceData(dst)))%8 != 0 {
		dst = unsafe.Slice((*uint8)(unsafe.Pointer(unsafe.SliceData(make([]uint64, need/8)))), need)
	}
	dst = dst[:need]
	keys := slabKeys(dst)
	for b := 0; b < nb; b++ {
		lo := b * keyBlockRows
		q.keyBlock(cols, nil, lo, min(lo+keyBlockRows, n), keys[b*ns*keyBlockRows:])
	}
	return dst, nil
}

// slabKeys views a QuantizeBatch slab as its keys.
func slabKeys(codes []uint8) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(codes))), len(codes)/8)
}

// PredictProbaCodes accumulates mean leaf probabilities over a keyed
// slab (QuantizeBatch layout) for len(out) rows. Tasks of 256 rows fan
// out under the same parallelism knob as the regular predict path and
// write disjoint out ranges, so the result is bit-identical at any
// worker count — and bit-identical to accumCols over the same rows. A
// batch of up to 256 rows walks inline and allocates nothing.
func (q *QuantForest) PredictProbaCodes(codes []uint8, out []float64) error {
	n := len(out)
	ns := len(q.slotCols)
	nb := (n + keyBlockRows - 1) / keyBlockRows
	if need := nb * ns * keyColBytes; len(codes) < need {
		return fmt.Errorf("forest: predict codes: slab has %d bytes, %d rows need %d", len(codes), n, need)
	}
	if uintptr(unsafe.Pointer(unsafe.SliceData(codes)))%8 != 0 {
		return fmt.Errorf("forest: predict codes: slab is not 8-byte aligned (not a QuantizeBatch slab)")
	}
	keys := slabKeys(codes)
	for i := range out {
		out[i] = 0
	}
	nTasks := (n + taskRows - 1) / taskRows
	if workers := q.workers(); workers == 1 || nTasks <= 1 {
		for t := 0; t < nTasks; t++ {
			q.walkTask(keys, t, out)
		}
	} else {
		// fn never returns an error and the context never cancels, so the
		// pool error is structurally nil.
		_ = parallel.Do(context.Background(), workers, nTasks, func(t int) error {
			q.walkTask(keys, t, out)
			return nil
		})
	}
	nt := float64(len(q.trees))
	for i := range out {
		out[i] /= nt
	}
	return nil
}

// walkTask walks task t's blocks of the slab into its disjoint out rows.
func (q *QuantForest) walkTask(keys []uint64, t int, out []float64) {
	lo := t * taskRows
	q.walkKeys(keys[lo*len(q.slotCols):], out[lo:min(lo+taskRows, len(out))])
}
