package tree

import (
	"slices"
	"sort"

	"monitorless/internal/frame"
)

// Ranks is the exact splitter's once-per-frame preparation, the
// counterpart of frame.Binned on the hist path: for every column, the
// dense rank of each ranked row's value among the ranked rows. Equal
// values share a rank (−0 and +0 are equal) and a smaller value has a
// smaller rank, so a stable counting sort of any sample list over a
// column's ranks orders it by (value, sample index) in O(n) — no
// comparison sort per tree, none per node. Read-only after RankFrame and
// shared by all of an ensemble's trees.
type Ranks struct {
	rank  [][]int32 // rank[f][row]; rows outside the ranked set hold 0
	count []int     // distinct ranks per column
}

// RankFrame ranks the listed rows (nil = all, duplicates harmless) of
// every column of the dense frame fr for trees of configuration cfg. It
// returns nil when such a tree sorts per node instead: when it offers
// only a subsample of the features at each node — ranking and carrying
// every column's order then costs more than sorting the few candidates —
// or draws random thresholds and never sorts.
func RankFrame(fr *frame.Frame, rows []int, cfg Config) *Ranks {
	n, d := fr.Rows(), fr.NumCols()
	if cfg.Splitter != Best || resolveMaxFeatures(cfg.MaxFeatures, d) < d {
		return nil
	}
	if rows == nil {
		rows = identity(n)
	}
	rk := &Ranks{rank: make([][]int32, d), count: make([]int, d)}
	slab := make([]int32, d*n)
	vals := make([]float64, len(rows))
	for f := 0; f < d; f++ {
		col := fr.Col(f)
		for i, r := range rows {
			vals[i] = col[r]
		}
		slices.Sort(vals)
		distinct := slices.Compact(vals)
		rank := slab[f*n : (f+1)*n]
		for _, r := range rows {
			rank[r] = int32(sort.SearchFloat64s(distinct, col[r]))
		}
		rk.rank[f], rk.count[f] = rank, len(distinct)
	}
	return rk
}

// sortSamples returns, for every feature f at [f*n, (f+1)*n), the sample
// indices 0..n-1 of smp in (value, sample index) order: a stable counting
// sort of the ascending sample list over the rows' ranks.
func (rk *Ranks) sortSamples(smp []int) []int32 {
	n := len(smp)
	sorted := make([]int32, len(rk.rank)*n)
	buckets := make([]int32, slices.Max(rk.count)+1)
	for f, rank := range rk.rank {
		start := buckets[:rk.count[f]+1] // start[r]: where rank r's samples go next
		clear(start)
		for _, row := range smp {
			start[rank[row]+1]++
		}
		for r := 1; r < len(start); r++ {
			start[r] += start[r-1]
		}
		out := sorted[f*n : (f+1)*n]
		for i, row := range smp {
			r := rank[row]
			out[start[r]] = int32(i)
			start[r]++
		}
	}
	return sorted
}
