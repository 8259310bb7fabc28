package frame

import (
	"bufio"
	"container/heap"
	"fmt"
	"io"
	"os"
	"sort"
)

// Streaming quantile binning for chunk-backed frames. The dense binEdges
// sorts a whole column at once; out of core that column never exists, so
// this path runs a classic external merge sort with the chunk as the
// natural run unit:
//
//	pass 0  one sweep over the chunks; per (chunk, column) the fitting
//	        values are sorted in chunk-sized scratch and appended to one
//	        temp run file (total size = one copy of the fitting values)
//	pass 1  per column, a k-way merge of its sorted runs streams the
//	        distinct values in ascending order through *exactly* the
//	        dense binEdges decision procedure — same integer-division
//	        quantile ranks, same midpoint cuts, same ≤ maxBins distinct
//	        fallback — so the resulting edges are bit-identical to
//	        sorting the materialized column
//	pass 2  one more chunk sweep emits the uint8 codes for every row
//
// Only the code slab (rows·cols bytes — 8× smaller than the corpus) and
// a few chunk-sized buffers are ever resident; edges are exact, not
// sketched, because training determinism is the contract.

// BinFrameChecked is BinFrame with an error return: the chunk-backed
// path does disk I/O that can fail, which the training entry points
// propagate instead of panicking.
func BinFrameChecked(fr *Frame, maxBins int, rows []int) (*Binned, error) {
	if fr.Chunked() {
		return binFrameChunked(fr, maxBins, rows)
	}
	return BinFrame(fr, maxBins, rows), nil
}

func clampMaxBins(maxBins int) int {
	switch {
	case maxBins <= 0 || maxBins > MaxBins:
		return MaxBins
	case maxBins < 2:
		return 2
	}
	return maxBins
}

// binFrameChunked quantizes a chunk-backed frame without materializing
// any column.
func binFrameChunked(fr *Frame, maxBins int, rows []int) (*Binned, error) {
	maxBins = clampMaxBins(maxBins)
	n := fr.Rows()
	d := fr.NumCols()
	b := &Binned{
		rows:  n,
		cols:  d,
		codes: make([]uint8, n*d),
		edges: make([][]float64, d),
	}

	// Fitting-row membership per view row.
	var fit []bool
	total := n
	if rows != nil {
		fit = make([]bool, n)
		for _, i := range rows {
			fit[i] = true
		}
		total = len(rows)
	}

	// Pass 0: write sorted per-(chunk, column) runs to one temp file.
	tmpDir := fr.SpillDir()
	tf, err := os.CreateTemp(tmpDir, "binruns-*.f64")
	if err != nil && tmpDir != "" {
		tf, err = os.CreateTemp("", "binruns-*.f64")
	}
	if err != nil {
		return nil, fmt.Errorf("frame: streaming bin: %w", err)
	}
	defer func() {
		tf.Close()
		os.Remove(tf.Name())
	}()

	var (
		runLens []int   // fitting-value count per chunk
		runOffs []int64 // byte offset of each chunk's block in the run file
		scratch []float64
		woff    int64
	)
	bw := bufio.NewWriterSize(tf, 1<<20)
	err = fr.ForEachChunk(func(base int, ch *Frame) error {
		nc := ch.Rows()
		if fit != nil {
			nc = 0
			for i := 0; i < ch.Rows(); i++ {
				if fit[base+i] {
					nc++
				}
			}
		}
		runLens = append(runLens, nc)
		runOffs = append(runOffs, woff)
		if nc == 0 {
			return nil
		}
		if cap(scratch) < nc {
			scratch = make([]float64, nc)
		}
		for j := 0; j < d; j++ {
			col := ch.Col(j)
			vals := scratch[:0]
			if fit == nil {
				vals = append(vals, col...)
			} else {
				for i, v := range col {
					if fit[base+i] {
						vals = append(vals, v)
					}
				}
			}
			sort.Float64s(vals)
			if _, err := bw.Write(floatsAsBytes(vals)); err != nil {
				return fmt.Errorf("frame: streaming bin: %w", err)
			}
		}
		woff += int64(nc) * int64(d) * 8
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, fmt.Errorf("frame: streaming bin: %w", err)
	}

	// Pass 1: per column, merge that column's sorted runs and replay the
	// dense binEdges decision procedure over the distinct-value stream.
	for j := 0; j < d; j++ {
		var mh mergeHeap
		for k, nc := range runLens {
			if nc == 0 {
				continue
			}
			off := runOffs[k] + int64(j)*int64(nc)*8
			r := &runReader{
				br:   bufio.NewReaderSize(io.NewSectionReader(tf, off, int64(nc)*8), 1<<15),
				left: nc,
			}
			if r.next() {
				mh = append(mh, r)
			}
		}
		heap.Init(&mh)
		edges, err := streamEdges(&mh, total, maxBins)
		if err != nil {
			return nil, fmt.Errorf("frame: streaming bin column %d: %w", j, err)
		}
		b.edges[j] = edges
	}

	// Pass 2: emit codes for every row, chunk by chunk.
	err = fr.ForEachChunk(func(base int, ch *Frame) error {
		for j := 0; j < d; j++ {
			col := ch.Col(j)
			dst := b.codes[j*n : (j+1)*n]
			edges := b.edges[j]
			for i, v := range col {
				dst[base+i] = Quantize(edges, v)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}

// runReader streams one sorted run of the temp file.
type runReader struct {
	br   *bufio.Reader
	left int
	cur  float64
	err  error
	buf  [1]float64 // read target; float64-typed so the byte view is aligned
}

// next advances to the run's next value; false at end or error.
func (r *runReader) next() bool {
	if r.left == 0 {
		return false
	}
	if _, err := io.ReadFull(r.br, floatsAsBytes(r.buf[:])); err != nil {
		r.err = err
		return false
	}
	r.cur = r.buf[0]
	r.left--
	return true
}

// mergeHeap is a min-heap of runs keyed by current value; ties are
// irrelevant because equal values are aggregated into one distinct
// event before any decision is made.
type mergeHeap []*runReader

func (h mergeHeap) Len() int            { return len(h) }
func (h mergeHeap) Less(i, j int) bool  { return h[i].cur < h[j].cur }
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(*runReader)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// popDistinct drains every run entry equal to the heap minimum and
// returns (value, count); ok is false when the heap is exhausted.
func popDistinct(mh *mergeHeap) (v float64, count int, ok bool, err error) {
	if mh.Len() == 0 {
		return 0, 0, false, nil
	}
	v = (*mh)[0].cur
	for mh.Len() > 0 && (*mh)[0].cur == v {
		r := (*mh)[0]
		count++
		if r.next() {
			heap.Fix(mh, 0)
		} else {
			if r.err != nil {
				return 0, 0, false, r.err
			}
			heap.Pop(mh)
		}
	}
	return v, count, true, nil
}

// streamEdges replays binEdges over a merged distinct-value stream. The
// two cases of the dense code run simultaneously: the first maxBins+1
// distinct values are retained for the one-bin-per-distinct fallback,
// while the greedy quantile cutter advances with identical
// k·total/maxBins integer arithmetic; which result applies is known only
// once the true distinct count is.
func streamEdges(mh *mergeHeap, total, maxBins int) ([]float64, error) {
	small := make([]float64, 0, maxBins+1)
	greedy := make([]float64, 0, maxBins-1)
	distinct := 0
	cum, k := 0, 1
	var prev float64
	var prevCount int
	for {
		v, count, ok, err := popDistinct(mh)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if distinct > 0 && len(greedy) < maxBins-1 {
			// The dense loop body for index distinct-1, with v playing
			// dv[distinct] (the "next distinct exists" guard is implicit:
			// this runs only when a successor arrived).
			cum += prevCount
			if cum >= k*total/maxBins {
				greedy = append(greedy, prev+(v-prev)/2)
				for k*total/maxBins <= cum {
					k++
				}
			}
		}
		if len(small) < maxBins+1 {
			small = append(small, v)
		}
		distinct++
		prev, prevCount = v, count
	}
	if distinct <= maxBins {
		edges := make([]float64, 0, distinct)
		for i := 0; i+1 < len(small); i++ {
			edges = append(edges, small[i]+(small[i+1]-small[i])/2)
		}
		return edges, nil
	}
	return greedy, nil
}
