package frame

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactRankBounds returns [count(<v)+1, count(≤v)] over the sorted data —
// the true rank interval of v.
func exactRankBounds(sorted []float64, v float64) (lo, hi int) {
	lo = sort.Search(len(sorted), func(i int) bool { return sorted[i] >= v }) + 1
	hi = sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
	return lo, hi
}

// TestQuantileSketchRankErrorBound verifies the documented accuracy
// contract on pathological and smooth distributions alike: for every
// queried q, the true rank interval of Quantile(q) lies within
// max(1, ⌈2n/K⌉) ranks of the target rank ⌈q·n⌉.
func TestQuantileSketchRankErrorBound(t *testing.T) {
	const k = 128
	const n = 20000
	rng := rand.New(rand.NewSource(21))
	dists := map[string]func(i int) float64{
		"constant":   func(i int) float64 { return 7.5 },
		"two-point":  func(i int) float64 { return float64(rng.Intn(2)) },
		"heavy-ties": func(i int) float64 { return float64(rng.Intn(7)) },
		"uniform":    func(i int) float64 { return rng.Float64() },
		"normal":     func(i int) float64 { return rng.NormFloat64() },
		"sorted":     func(i int) float64 { return float64(i) },
		"reversed":   func(i int) float64 { return float64(n - i) },
		"zipf-ish":   func(i int) float64 { return math.Floor(1 / (rng.Float64() + 1e-3)) },
	}
	for name, gen := range dists {
		t.Run(name, func(t *testing.T) {
			s := NewQuantileSketch(k)
			data := make([]float64, n)
			for i := 0; i < n; i++ {
				data[i] = gen(i)
				if err := s.Observe(data[i]); err != nil {
					t.Fatalf("observe: %v", err)
				}
			}
			sort.Float64s(data)
			bound := (2*n + k - 1) / k // ⌈2n/K⌉, the documented max rank error
			if bound < 1 {
				bound = 1
			}
			for qi := 0; qi <= 100; qi++ {
				q := float64(qi) / 100
				v := s.Quantile(q)
				target := int(math.Ceil(q * n))
				if target < 1 {
					target = 1
				}
				lo, hi := exactRankBounds(data, v)
				if lo > hi {
					t.Fatalf("q=%.2f: sketch returned %v, which is not in the data", q, v)
				}
				errRank := 0
				if target < lo {
					errRank = lo - target
				} else if target > hi {
					errRank = target - hi
				}
				if errRank > bound {
					t.Fatalf("q=%.2f: value %v has rank interval [%d,%d], target %d, error %d > bound %d",
						q, v, lo, hi, target, errRank, bound)
				}
			}
		})
	}
}

// TestQuantileSketchExactWhenSmall: below the summary size the buffer
// never compresses, so quantiles are exact order statistics.
func TestQuantileSketchExactWhenSmall(t *testing.T) {
	s := NewQuantileSketch(64)
	data := []float64{5, 1, 4, 1, 3, 3, 9, 0}
	for _, v := range data {
		if err := s.Observe(v); err != nil {
			t.Fatalf("observe: %v", err)
		}
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	for qi := 0; qi <= 10; qi++ {
		q := float64(qi) / 10
		r := int(math.Ceil(q * float64(len(data))))
		if r < 1 {
			r = 1
		}
		if got, want := s.Quantile(q), sorted[r-1]; got != want {
			t.Fatalf("q=%.1f: got %v want %v", q, got, want)
		}
	}
}

// TestQuantileSketchRejectsNonFinite: NaN and ±Inf must error out of
// Observe rather than poisoning the summary.
func TestQuantileSketchRejectsNonFinite(t *testing.T) {
	s := NewQuantileSketch(32)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := s.Observe(bad); err == nil {
			t.Fatalf("Observe(%v) did not error", bad)
		}
	}
	if s.Count() != 0 {
		t.Fatalf("rejected values were counted: n=%d", s.Count())
	}
	if err := s.Observe(1.5); err != nil {
		t.Fatalf("finite observe: %v", err)
	}
	if got := s.Quantile(0.5); got != 1.5 {
		t.Fatalf("median after one observation: got %v", got)
	}
}

// TestQuantileSketchDeterministic: the summary is a pure function of the
// observation sequence.
func TestQuantileSketchDeterministic(t *testing.T) {
	build := func() *QuantileSketch {
		s := NewQuantileSketch(64)
		rng := rand.New(rand.NewSource(33))
		for i := 0; i < 5000; i++ {
			s.Observe(rng.NormFloat64())
		}
		return s
	}
	a, b := build(), build()
	for qi := 0; qi <= 20; qi++ {
		q := float64(qi) / 20
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("q=%.2f diverges between identical streams", q)
		}
	}
}

// TestStreamedFingerprintMatchesDenseMoments: the chunked fingerprint's
// moments, range, and row count are bit-identical to the dense path;
// edges are sketch-derived, so only their rank accuracy and the Streamed
// flag are asserted.
func TestStreamedFingerprintMatchesDenseMoments(t *testing.T) {
	fr := binTestFrame(t, 3000, 41)
	dense := FingerprintFrame(fr, 10)
	if dense.Streamed {
		t.Fatalf("dense fingerprint flagged streamed")
	}
	ch, err := Rechunk(fr, 256, "")
	if err != nil {
		t.Fatalf("rechunk: %v", err)
	}
	streamed := FingerprintFrame(ch, 10)
	if !streamed.Streamed {
		t.Fatalf("chunked fingerprint not flagged streamed")
	}
	if streamed.Rows != dense.Rows || len(streamed.Cols) != len(dense.Cols) {
		t.Fatalf("shape mismatch")
	}
	for j := range dense.Cols {
		d, s := dense.Cols[j], streamed.Cols[j]
		if d.Name != s.Name {
			t.Fatalf("column %d name %q vs %q", j, s.Name, d.Name)
		}
		if math.Float64bits(d.Mean) != math.Float64bits(s.Mean) ||
			math.Float64bits(d.Std) != math.Float64bits(s.Std) ||
			d.Min != s.Min || d.Max != s.Max {
			t.Fatalf("column %d moments diverge: dense {%v %v %v %v} streamed {%v %v %v %v}",
				j, d.Mean, d.Std, d.Min, d.Max, s.Mean, s.Std, s.Min, s.Max)
		}
		if len(s.Props) != len(s.Edges)+1 {
			t.Fatalf("column %d: %d props for %d edges", j, len(s.Props), len(s.Edges))
		}
		var tot float64
		for _, p := range s.Props {
			tot += p
		}
		if math.Abs(tot-1) > 1e-9 {
			t.Fatalf("column %d props sum to %v", j, tot)
		}
		for b := 1; b < len(s.Edges); b++ {
			if s.Edges[b] <= s.Edges[b-1] {
				t.Fatalf("column %d edges not strictly increasing: %v", j, s.Edges)
			}
		}
	}
	if err := streamed.Validate(fr.NumCols()); err != nil {
		t.Fatalf("validate: %v", err)
	}
}
