package frame

import (
	"fmt"
	"sort"

	"monitorless/internal/parallel"
)

// MaxBins is the hard cap on bins per column: codes are uint8, so a
// column can never need more than one byte per value.
const MaxBins = 256

// Binned is the quantized companion of a Frame: every column is mapped
// once into at most MaxBins uint8 bin codes, stored column-major in one
// contiguous slab, plus the per-column upper bin edges in the original
// value domain. It is the input of the histogram-based tree trainers:
// split finding accumulates per-bin statistics over the codes and never
// sorts sample values again, and a chosen split "bin ≤ b" is recorded as
// the real-valued threshold Edge(j, b), so fitted trees predict directly
// from raw float values with no reference to the binning.
//
// Bin edges are exact quantiles of the *fitting* rows (the training
// subset), computed from one sort per column; codes cover every row of
// the source frame so bootstrap resamples and fold views index the same
// code slab. The construction is deterministic: edges depend only on the
// multiset of fitting values and per-column work is fanned out through
// the deterministic parallel pool with results keyed by column index.
type Binned struct {
	rows, cols int
	codes      []uint8     // codes[j*rows+i] = bin of row i under column j
	edges      [][]float64 // edges[j][b] = inclusive upper value of bin b; len = bins-1
}

// BinFrame quantizes fr into at most maxBins bins per column (0 selects
// MaxBins; values are clamped to [2, MaxBins]). Bin edges are computed
// from the listed fitting rows (nil = every row); codes are computed for
// every frame row.
func BinFrame(fr *Frame, maxBins int, rows []int) *Binned {
	return BinColumns(fr.Cols(nil), fr.Rows(), maxBins, rows)
}

// BinColumns is the column-slice form of BinFrame for callers that hold
// compact columns rather than a Frame. Each cols[j] must have n values.
func BinColumns(cols [][]float64, n, maxBins int, rows []int) *Binned {
	switch {
	case maxBins <= 0 || maxBins > MaxBins:
		maxBins = MaxBins
	case maxBins < 2:
		maxBins = 2
	}
	b := &Binned{
		rows:  n,
		cols:  len(cols),
		codes: make([]uint8, n*len(cols)),
		edges: make([][]float64, len(cols)),
	}
	// Per-column binning is independent; the pool assembles edges and
	// codes by column index, so the result is identical at any width.
	_ = parallel.ForEach(len(cols), func(j int) error {
		col := cols[j]
		edges := binEdges(col, rows, maxBins)
		b.edges[j] = edges
		dst := b.codes[j*n : (j+1)*n]
		for i, v := range col {
			dst[i] = Quantize(edges, v)
		}
		return nil
	})
	return b
}

// binEdges computes the quantile cut points of one column: the sorted
// fitting values are grouped by distinct value, and a cut is placed at
// the midpoint between adjacent distinct values whenever the cumulative
// count crosses the next k·n/maxBins quantile. Columns with fewer than
// maxBins distinct values get one bin per distinct value, which makes
// the histogram splitter's candidate thresholds a superset of the exact
// splitter's midpoints on the fitting rows.
func binEdges(col []float64, rows []int, maxBins int) []float64 {
	var vals []float64
	if rows == nil {
		vals = append([]float64(nil), col...)
	} else {
		vals = make([]float64, len(rows))
		for p, i := range rows {
			vals[p] = col[i]
		}
	}
	sort.Float64s(vals)

	// Distinct values with counts, in ascending order.
	dv := vals[:0] // reuse the sorted backing for distinct values
	counts := make([]int, 0, maxBins)
	for i := 0; i < len(vals); {
		v := vals[i]
		j := i
		for j < len(vals) && vals[j] == v {
			j++
		}
		dv = append(dv, v)
		counts = append(counts, j-i)
		i = j
	}

	if len(dv) <= maxBins {
		edges := make([]float64, 0, len(dv))
		for i := 0; i+1 < len(dv); i++ {
			edges = append(edges, dv[i]+(dv[i+1]-dv[i])/2)
		}
		return edges
	}

	// Greedy quantile cuts: close a bin at the first distinct-value
	// boundary past each k·total/maxBins rank.
	total := 0
	for _, c := range counts {
		total += c
	}
	edges := make([]float64, 0, maxBins-1)
	cum, k := 0, 1
	for i := 0; i+1 < len(dv) && len(edges) < maxBins-1; i++ {
		cum += counts[i]
		if cum >= k*total/maxBins {
			edges = append(edges, dv[i]+(dv[i+1]-dv[i])/2)
			for k*total/maxBins <= cum {
				k++
			}
		}
	}
	return edges
}

// Quantize maps a value to its bin code under the given ascending edges:
// the first bin whose upper edge is ≥ v, or len(edges) (the last bin)
// when v exceeds every edge. It is the definition of quantization in the
// repo — training codes (BinFrame), quantized inference (forest.Compile)
// and the fingerprint's training occupancies (sketchColumn) all call it
// (the drift observer's keyed search, lifecycle.Cell.Observe, is pinned
// to it bit for bit by test), which is what makes the invariant
// Quantize(edges, v) ≤ b ⟺ v ≤ edges[b] hold for *every* float64 v:
// −Inf codes to 0 and goes left everywhere, while +Inf and NaN code to
// len(edges) (the predicate edges[m] ≥ v is false for both) and go right
// everywhere — exactly what a float compare v ≤ edges[b] decides.
func Quantize(edges []float64, v float64) uint8 {
	lo, hi := 0, len(edges)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		// The branch must be on edges[m] >= v (not its negation) so NaN
		// falls through to lo = m+1 and codes past the last edge.
		if edges[m] >= v {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return uint8(lo)
}

// Rows returns the number of coded rows.
func (b *Binned) Rows() int { return b.rows }

// NumCols returns the number of binned columns.
func (b *Binned) NumCols() int { return b.cols }

// NumBins returns how many bins column j uses (edges + 1).
func (b *Binned) NumBins(j int) int { return len(b.edges[j]) + 1 }

// MaxNumBins returns the widest column's bin count (histogram sizing).
func (b *Binned) MaxNumBins() int {
	m := 1
	for j := range b.edges {
		if n := len(b.edges[j]) + 1; n > m {
			m = n
		}
	}
	return m
}

// ColCodes returns the contiguous code slab of column j (read-only).
func (b *Binned) ColCodes(j int) []uint8 {
	return b.codes[j*b.rows : (j+1)*b.rows : (j+1)*b.rows]
}

// Edges returns the per-column bin edge sets (edges[j][b] = inclusive
// upper value of bin b under column j). The returned slices alias the
// Binned's internal state and must not be mutated; forest.Compile
// retains them as the quantized predictor's code map.
func (b *Binned) Edges() [][]float64 { return b.edges }

// Edge returns the real-valued inclusive upper edge of bin bin in column
// j — the threshold a "bin ≤ bin" split records. It panics for the last
// bin, which has no upper edge (no split can cut above it).
func (b *Binned) Edge(j, bin int) float64 {
	e := b.edges[j]
	if bin >= len(e) {
		panic(fmt.Sprintf("frame: bin %d of column %d has no upper edge (%d bins)", bin, j, len(e)+1))
	}
	return e[bin]
}
