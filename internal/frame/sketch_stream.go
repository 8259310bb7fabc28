package frame

import (
	"fmt"
	"math"
	"sort"
)

// The streaming half of the fingerprint path: a bounded-memory quantile
// sketch plus the chunk-sweeping FingerprintFrame used for out-of-core
// corpora, where sorting a whole column (the exact fingerprint's edge
// rule) is off the table.

// streamSketchEntries is the summary size of fingerprint sketches: with
// K entries the rank error is ≤ ⌈2n/K⌉, i.e. ≤ ~0.4% of n at K = 512 —
// far below the resolution PSI's ≤ 64 equal-frequency bins need.
const streamSketchEntries = 512

// QuantileSketch is a deterministic Greenwald–Khanna quantile summary.
// Observations buffer exactly until the buffer fills, then merge into a
// sorted list of tuples (v, g, Δ): v an observed value, g the gap
// between this tuple's minimum possible rank and its predecessor's, Δ
// the width of the tuple's rank uncertainty. Every tuple obeys
// g + Δ ≤ t with t = max(1, ⌊2n/K⌋), so consecutive rank intervals can
// never be farther than t apart and a query is always within t of some
// tuple's true rank interval. That invariant — not per-pass luck — is
// what survives any number of compactions; naive (value, weight)
// coalescing accumulates error every compress pass and has no bound.
//
// Accuracy contract (tested in sketch_stream_test.go): for any q, the
// true rank interval of Quantile(q) — [count(<v)+1, count(≤v)] — lies
// within max(1, ⌈2n/K⌉) ranks of the target rank ⌈q·n⌉. While
// ⌊2n/K⌋ < 2 (n < K) nothing compacts, so quantiles over short streams
// are exact order statistics. The summary is a pure function of the
// observation sequence — no randomization — so sketches are
// reproducible across runs and worker counts. Memory is O(K) in
// practice (the greedy compaction keeps ~K tuples); returned values are
// always actual observations.
type QuantileSketch struct {
	k    int
	n    int64
	vals []float64 // tuple values, ascending
	gs   []int64   // g: r_min(i) − r_min(i−1)
	ds   []int64   // Δ: r_max(i) − r_min(i)
	buf  []float64 // pending exact observations
}

// NewQuantileSketch returns a sketch with rank error ≤ max(1, ⌈2n/k⌉)
// (k < 16 is raised to 16).
func NewQuantileSketch(k int) *QuantileSketch {
	if k < 16 {
		k = 16
	}
	return &QuantileSketch{k: k, buf: make([]float64, 0, k)}
}

// Count returns the number of observations folded in.
func (s *QuantileSketch) Count() int64 { return s.n }

// Observe folds one value into the sketch. Non-finite values are
// rejected with an error: a quantile over NaN is meaningless, and the
// frame boundary (CheckFinite) is where bad data is supposed to die.
func (s *QuantileSketch) Observe(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("frame: non-finite value %v observed by quantile sketch", v)
	}
	s.n++
	s.buf = append(s.buf, v)
	if len(s.buf) == cap(s.buf) {
		s.compress()
	}
	return nil
}

// compress merges the buffered observations into the tuple list and
// compacts tuples under the current threshold.
func (s *QuantileSketch) compress() {
	if len(s.buf) == 0 {
		return
	}
	sort.Float64s(s.buf)
	t := s.threshold()

	// Merge the sorted buffer into the tuple list. A buffered value is
	// exact relative to its neighbors in the buffer, so its only rank
	// uncertainty is its position among the observations already folded
	// into its existing successor tuple: Δ = g_j + Δ_j − 1 for the next
	// existing tuple j, or 0 when it lands past every existing tuple.
	// Both old tuples (g+Δ ≤ old, smaller t) and new ones (1 + g_j + Δ_j
	// − 1 = g_j + Δ_j) keep the g + Δ ≤ t invariant.
	nv := make([]float64, 0, len(s.vals)+len(s.buf))
	ng := make([]int64, 0, len(s.vals)+len(s.buf))
	nd := make([]int64, 0, len(s.vals)+len(s.buf))
	i, j := 0, 0
	for i < len(s.vals) || j < len(s.buf) {
		if j >= len(s.buf) || (i < len(s.vals) && s.vals[i] <= s.buf[j]) {
			nv = append(nv, s.vals[i])
			ng = append(ng, s.gs[i])
			nd = append(nd, s.ds[i])
			i++
		} else {
			var d int64
			if i < len(s.vals) {
				d = s.gs[i] + s.ds[i] - 1
			}
			nv = append(nv, s.buf[j])
			ng = append(ng, 1)
			nd = append(nd, d)
			j++
		}
	}

	// Compact right to left: a tuple folds into its successor while the
	// combined span g_i + g_{i+1} + Δ_{i+1} stays within the threshold.
	// The successor keeps its value and Δ and absorbs the g, so the
	// invariant holds for the merged tuple by the merge condition itself.
	out := len(nv) - 1
	for p := len(nv) - 2; p >= 0; p-- {
		if ng[p]+ng[out]+nd[out] <= t {
			ng[out] += ng[p]
		} else {
			out--
			nv[out], ng[out], nd[out] = nv[p], ng[p], nd[p]
		}
	}
	s.vals = append(s.vals[:0], nv[out:]...)
	s.gs = append(s.gs[:0], ng[out:]...)
	s.ds = append(s.ds[:0], nd[out:]...)
	s.buf = s.buf[:0]
}

// threshold is the tuple-span cap t = max(1, ⌊2n/K⌋).
func (s *QuantileSketch) threshold() int64 {
	t := 2 * s.n / int64(s.k)
	if t < 1 {
		t = 1
	}
	return t
}

// Quantile returns a value whose true rank interval is within
// max(1, ⌈2n/K⌉) ranks of ⌈q·n⌉ (see the type comment). q is clamped to
// [0, 1]; the sketch must have observed at least one value.
func (s *QuantileSketch) Quantile(q float64) float64 {
	s.compress()
	if s.n == 0 || len(s.vals) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	r := int64(math.Ceil(q * float64(s.n)))
	if r < 1 {
		r = 1
	}
	// Pick the tuple whose rank interval [r_min, r_max] is closest to r.
	// Intervals are ascending and consecutive ones are at most t apart
	// (the g + Δ ≤ t invariant), so the winner is within t of r.
	best, bestDist := 0, int64(-1)
	var rmin int64
	for i := range s.vals {
		rmin += s.gs[i]
		rmax := rmin + s.ds[i]
		var dist int64
		if r < rmin {
			dist = rmin - r
		} else if r > rmax {
			dist = r - rmax
		}
		if bestDist < 0 || dist < bestDist {
			best, bestDist = i, dist
		}
		if rmin >= r {
			break // intervals only move right of r from here on
		}
	}
	return s.vals[best]
}

// fingerprintFrameChunked is FingerprintFrame for chunk-backed frames:
// two chunk sweeps, never a materialized column. Sweep 1 accumulates the
// per-column sum, min, max and quantile sketch in row order — the same
// floating-point addition sequence as the dense two-pass sketchColumn,
// so Mean/Min/Max come out bit-identical. Sweep 2 computes the squared
// deviations (bit-identical Std) and the per-bin occupancies against the
// sketch-derived edges. Only the edges differ from the exact path (sketch
// values instead of sorted-column midpoints), which is why the result is
// flagged Streamed.
func fingerprintFrameChunked(fr *Frame, bins int) *Fingerprint {
	d := fr.NumCols()
	n := fr.Rows()
	fp := &Fingerprint{Rows: n, Streamed: true, Cols: make([]ColFingerprint, d)}
	for j := 0; j < d; j++ {
		fp.Cols[j].Name = fr.Schema()[j].Name
	}
	if n == 0 {
		for j := 0; j < d; j++ {
			fp.Cols[j].Props = []float64{1}
		}
		return fp
	}

	sums := make([]float64, d)
	mins := make([]float64, d)
	maxs := make([]float64, d)
	sketches := make([]*QuantileSketch, d)
	for j := range sketches {
		sketches[j] = NewQuantileSketch(streamSketchEntries)
	}
	first := true
	err := fr.ForEachChunk(func(base int, ch *Frame) error {
		for j := 0; j < d; j++ {
			col := ch.Col(j)
			if first {
				mins[j], maxs[j] = col[0], col[0]
			}
			sk := sketches[j]
			for _, v := range col {
				sums[j] += v
				if v < mins[j] {
					mins[j] = v
				}
				if v > maxs[j] {
					maxs[j] = v
				}
				// Non-finite values poison the moments exactly as on the
				// dense path; the sketch alone skips them.
				_ = sk.Observe(v)
			}
		}
		first = false
		return nil
	})
	if err != nil {
		panic(fmt.Sprintf("frame: streamed fingerprint: %v", err))
	}

	for j := 0; j < d; j++ {
		cf := &fp.Cols[j]
		cf.Mean = sums[j] / float64(n)
		cf.Min, cf.Max = mins[j], maxs[j]
		cf.Edges = sketchEdges(sketches[j], bins)
		cf.Props = make([]float64, len(cf.Edges)+1)
	}

	m2 := make([]float64, d)
	err = fr.ForEachChunk(func(base int, ch *Frame) error {
		for j := 0; j < d; j++ {
			cf := &fp.Cols[j]
			col := ch.Col(j)
			for _, v := range col {
				dv := v - cf.Mean
				m2[j] += dv * dv
				cf.Props[Quantize(cf.Edges, v)]++
			}
		}
		return nil
	})
	if err != nil {
		panic(fmt.Sprintf("frame: streamed fingerprint: %v", err))
	}
	inv := 1 / float64(n)
	for j := 0; j < d; j++ {
		// Divide, don't multiply by the reciprocal: sketchColumn divides,
		// and Std must come out bit-identical to the dense path.
		fp.Cols[j].Std = math.Sqrt(m2[j] / float64(n))
		for b := range fp.Cols[j].Props {
			fp.Cols[j].Props[b] *= inv
		}
	}
	return fp
}

// sketchEdges derives ≤ bins-1 strictly increasing equal-frequency cut
// points from a sketch (duplicate quantile values collapse, as the exact
// binEdges' distinct-value grouping does).
func sketchEdges(s *QuantileSketch, bins int) []float64 {
	if s.Count() == 0 {
		return nil
	}
	edges := make([]float64, 0, bins-1)
	for b := 1; b < bins; b++ {
		e := s.Quantile(float64(b) / float64(bins))
		if len(edges) == 0 || e > edges[len(edges)-1] {
			edges = append(edges, e)
		}
	}
	// The top quantile equals the column max; an edge at the max would
	// leave the last bin empty of training mass only when the max is hit
	// exactly — harmless either way, so edges are kept as computed.
	return edges
}
