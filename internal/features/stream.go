package features

import "fmt"

// This file is the online half of the feature pipeline: an incremental
// evaluator that engineers raw samples in O(1) work per sample through
// the same kernels (batch.go) the offline pipeline runs, so its vectors
// equal the offline ones over the instance's full history bit for bit.
//
// Every pipeline step except TimeFeatures is row-local once fitted, so the
// stream splits the fitted step chain into the row steps before the time
// expansion ("pre"), the TimeFeatures step itself, and the row steps after
// it ("post"). TimeFeatures is the only step with run context: X-AVG needs
// a trailing sum and X-LAG needs an old row. Each instance keeps
//
//   - a ring of the last maxLag+1 pre-transformed ("base") rows, and
//   - a ring of the last maxAvg+2 per-column prefix-sum vectors
//     P[j][c] = Σ_{i≤j} base[i][c], accumulated in arrival order,
//
// so that the trailing average over [lo..j] is (P[j]-P[lo-1])/span. The
// offline driver plays a frame's runs through the same rings; a running
// windowed sum (add new, subtract evicted) would drift in the last ulps.
//
// Both rings are flat row-major slabs whose rows hold only the columns
// the liveness plan's ring sets name (liveness.go): a prefix row is
// len(prefIdx) floats wide, a base row len(ringIdx), and each window reads
// its columns through precomputed cell positions. The prefix ring carries
// one extra leading row that is permanently zero — the implicit P[-1] —
// so a ring offset can always be computed branchlessly. The rings of many
// instances pack at a per-slot stride into a StateSlab, and the one
// stepping path is StepBatchInto (batch.go): a single sample is a batch of
// one.

// Streamer evaluates a fitted pipeline incrementally, one batch of raw
// samples at a time (batch.go). It is immutable after construction — safe
// for concurrent use; all per-instance mutable state lives in the
// StateSlab values minted for it.
type Streamer struct {
	pipe      *Pipeline
	pre, post []Step
	tf        *TimeFeatures
	baseCols  int
	maxAvg    int
	maxLag    int

	// plan is the static column-liveness plan the batch kernels run
	// under (liveness.go); built once, immutable.
	plan *batchPlan
}

// Streamer builds the incremental evaluator for a fitted pipeline. It
// fails, naming the step, when a fitted step is malformed or was fitted
// on a width its predecessor does not produce.
func (p *Pipeline) Streamer() (*Streamer, error) {
	if len(p.Steps) == 0 {
		return nil, fmt.Errorf("features: pipeline is not fitted")
	}
	s := &Streamer{pipe: p}
	widths := []int{p.InCols} // each step's input width, then the output's
	for _, st := range p.Steps {
		if e, isExpand := st.(*Expand); isExpand && e.In == 0 {
			return nil, fmt.Errorf("features: streamer: pipeline predates streaming support; re-fit and re-save the model")
		}
		w, err := stepWidth(st, widths[len(widths)-1])
		if err != nil {
			return nil, fmt.Errorf("features: streamer: %w", err)
		}
		widths = append(widths, w)
		if tf, ok := st.(*TimeFeatures); ok {
			if s.tf != nil {
				return nil, fmt.Errorf("features: streamer: multiple time-feature steps")
			}
			s.setTime(tf)
		} else if s.tf == nil {
			s.pre = append(s.pre, st)
		} else {
			s.post = append(s.post, st)
		}
	}
	s.plan = buildBatchPlan(s, widths)
	return s, nil
}

// setTime makes tf the streamer's time step, sizing its rings.
func (s *Streamer) setTime(tf *TimeFeatures) {
	s.tf, s.baseCols = tf, tf.InCols
	s.maxAvg, s.maxLag = tf.maxWindows()
}

// CheckWidth validates a raw sample's width, returning exactly the error
// StepBatchInto would. Callers use it to validate before touching any
// state.
func (s *Streamer) CheckWidth(raw []float64) error {
	if len(raw) != s.pipe.InCols {
		return fmt.Errorf("features: stream: pipeline fitted on %d raw cols, got %d", s.pipe.InCols, len(raw))
	}
	return nil
}

// ring geometry: base ring rows and prefix ring rows (the prefix ring
// carries one extra permanently-zero leading row standing in for P[-1]).
func (s *Streamer) baseRows() int { return s.maxLag + 1 }
func (s *Streamer) prefRows() int { return s.maxAvg + 2 }
