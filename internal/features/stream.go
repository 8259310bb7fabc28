package features

import "fmt"

// This file is the online half of the feature pipeline: an incremental
// evaluator that engineers raw samples in O(1) work per sample, producing
// vectors that are bit-identical to running the fitted batch pipeline
// (Pipeline.TransformFrame) over the instance's full history.
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
// so that the trailing average over [lo..j] is (P[j]-P[lo-1])/span — the
// exact expression, with the exact floating-point evaluation order, that
// the batch TimeFeatures.Transform computes from its full-run prefix sums.
// That is what makes streaming-vs-batch equivalence bit-level rather than
// approximate: a running windowed sum (add new, subtract evicted) would
// drift from the batch prefix differences in the last ulps.
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
//
// Only steps with a columnar kernel stream. A pipeline with any other
// fitted step — PCA, which the offline ablation alone builds — is refused
// here and runs offline only, through Pipeline.TransformFrame.

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
// fails, naming the step, when a fitted step has no columnar kernel.
func (p *Pipeline) Streamer() (*Streamer, error) {
	if len(p.Steps) == 0 {
		return nil, fmt.Errorf("features: pipeline is not fitted")
	}
	s := &Streamer{pipe: p}
	for _, st := range p.Steps {
		if tf, ok := st.(*TimeFeatures); ok {
			if s.tf != nil {
				return nil, fmt.Errorf("features: streamer: multiple time-feature steps")
			}
			s.tf = tf
			continue
		}
		if e, isExpand := st.(*Expand); isExpand && e.In == 0 {
			return nil, fmt.Errorf("features: streamer: pipeline predates streaming support; re-fit and re-save the model")
		}
		if kernelOutWidth(st) < 0 {
			return nil, fmt.Errorf("features: streamer: step %s has no columnar kernel; it runs offline only", st.Name())
		}
		if s.tf == nil {
			s.pre = append(s.pre, st)
		} else {
			s.post = append(s.post, st)
		}
	}
	if s.tf != nil {
		s.baseCols = s.tf.InCols
		for _, w := range s.tf.AvgWindows {
			if w > s.maxAvg {
				s.maxAvg = w
			}
		}
		for _, w := range s.tf.LagWindows {
			if w > s.maxLag {
				s.maxLag = w
			}
		}
	}
	s.plan = buildBatchPlan(s)
	return s, nil
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
