package features

import (
	"fmt"
	"slices"
)

// Static column liveness for the batch kernels. The fitted step chain is
// a dataflow graph with fixed column routing — every RFFilter Keep set,
// Products pair, Expand dummy block is frozen at fit time — so one
// backward pass from the pipeline's final outputs tells exactly which
// intermediate columns can ever reach an engineered feature. The batch
// kernels skip the rest: the first importance filter typically keeps a
// few dozen of a few hundred expanded/scaled columns. Columnar layout
// makes the skip free: a dead column's slot in the ping-pong view is a
// shared uninitialized pad column that no live computation ever reads.
//
// Pipeline.TransformFrame runs under the same plan (offline.go). Masking
// cannot move a bit: a masked-off value is, by the backward pass, not an
// operand of any computation whose result survives to the final vector.
// The equivalence and fuzz tests compare final vectors with a test-only
// reference, so they hold the plan to that claim.
//
// The rings are pruned the same way, and packed: a prefix ring row holds
// only the columns some live trailing average reads (prefIdx), a base ring
// row only the columns some live lag reads (ringIdx), cell p of a row
// holding column prefIdx[p] (resp. ringIdx[p]). A dead ring column has no
// cell at all, so a slot costs exactly the state its live windows read.

// batchPlan is the per-streamer liveness plan: one live-output mask per
// row step plus the time-stage index lists. A nil mask means "all live —
// run the kernel unmasked". Plans are immutable after Streamer build.
type batchPlan struct {
	rawLive []bool   // raw input columns worth transposing; nil = all
	pre     [][]bool // live-output mask per s.pre step
	post    [][]bool // live-output mask per s.post step
	tm      *timePlan
	// computed counts the live columns the kernels compute per sample,
	// the offline driver's arena size in columns.
	computed int
}

// timePlan is the time stage's slice of the plan as index lists (the
// kernels iterate them directly): which columns each window emits, the
// union sets the two rings hold for them, and where each window column
// sits in its ring row.
type timePlan struct {
	prefIdx []int   // prefix-ring columns; cell p holds column prefIdx[p]
	ringIdx []int   // base-ring columns; cell p holds column ringIdx[p]
	avgIdx  [][]int // per avg window, live output columns
	lagIdx  [][]int // per lag window, live output columns
	avgPos  [][]int // per avg window, avgIdx[w][i]'s cell in a prefix row
	lagPos  [][]int // per lag window, lagIdx[w][i]'s cell in a base row
}

// RawLive is the plan's raw-input mask: the columns that can reach an
// engineered feature. Nil means every column (nothing pruned). Besides
// the transposer it tells the drift observer which raw columns are worth
// watching. Shared; callers must not modify it.
func (s *Streamer) RawLive() []bool { return s.plan.rawLive }

// stepWidth checks that a fitted step's kernel, which indexes columns
// unchecked, can read w input columns, and returns its output width. A
// bundle arrives from outside the program, so a PCA projection whose
// shape disagrees with itself is refused here too.
func stepWidth(step Step, w int) (int, error) {
	in, out := w, 0
	var keep []int
	switch t := step.(type) {
	case *Expand:
		in, out = t.In, t.In
		for _, cpu := range t.TargetCPU {
			out += len(levelSpecs(cpu))
		}
	case *StandardScale:
		in, out = len(t.Mean), len(t.Mean)
	case *TimeFeatures:
		in, out = t.InCols, t.InCols*(1+len(t.AvgWindows)+len(t.LagWindows))
	case *Products:
		in, out = t.InCols, t.InCols+len(t.Pairs)
	case selection:
		keep = t.kept()
		out = len(keep)
	case *PCAReduce:
		if t.P == nil || t.P.Components == nil {
			return 0, fmt.Errorf("%s: not fitted", step.Name())
		}
		c := t.P.Components
		if c.Rows < 0 || c.Cols != len(t.P.Mean) || len(c.Data) != c.Rows*c.Cols {
			return 0, fmt.Errorf("%s: %d×%d components over %d values for %d means", step.Name(), c.Rows, c.Cols, len(c.Data), len(t.P.Mean))
		}
		in, out = c.Cols, c.Rows
	default:
		return 0, fmt.Errorf("unknown step %s", step.Name())
	}
	if in != w {
		return 0, fmt.Errorf("%s: fitted on %d cols, got %d", step.Name(), in, w)
	}
	for _, k := range keep {
		if k < 0 || k >= w {
			return 0, fmt.Errorf("%s: column %d out of range (%d cols)", step.Name(), k, w)
		}
	}
	return out, nil
}

func allTrue(mask []bool) bool {
	for _, v := range mask {
		if !v {
			return false
		}
	}
	return true
}

// maskOrNil collapses an all-live mask to nil so kernels take their
// unmasked fast path.
func maskOrNil(mask []bool) []bool {
	if allTrue(mask) {
		return nil
	}
	return mask
}

func idxOf(mask []bool) []int {
	idx := make([]int, 0, len(mask))
	for c, v := range mask {
		if v {
			idx = append(idx, c)
		}
	}
	return idx
}

// buildBatchPlan runs the backward liveness pass over the streamer's
// chain, whose step i reads widths[i] columns and whose output is
// widths[len(widths)-1] wide (stepWidth checked them all).
func buildBatchPlan(s *Streamer, widths []int) *batchPlan {
	plan := &batchPlan{
		pre:  make([][]bool, len(s.pre)),
		post: make([][]bool, len(s.post)),
	}
	preIn := widths[:len(s.pre)]
	postIn := widths[len(widths)-1-len(s.post) : len(widths)-1]

	// Start all-live at the engineered output, map each step's live
	// outputs onto the inputs it actually reads.
	live := make([]bool, widths[len(widths)-1])
	for i := range live {
		live[i] = true
	}
	for i := len(s.post) - 1; i >= 0; i-- {
		plan.post[i] = maskOrNil(live)
		plan.computed += computedCols(s.post[i], live)
		live = liveIn(s.post[i], live, postIn[i])
	}
	if s.tf != nil {
		plan.computed += len(idxOf(live[s.baseCols:])) // live windows
		plan.tm, live = s.timePlanFrom(live)
	}
	for i := len(s.pre) - 1; i >= 0; i-- {
		plan.pre[i] = maskOrNil(live)
		plan.computed += computedCols(s.pre[i], live)
		live = liveIn(s.pre[i], live, preIn[i])
	}
	plan.rawLive = maskOrNil(live)
	return plan
}

// computedCols counts the live outputs a row step's kernel computes
// rather than passes through or selects.
func computedCols(step Step, out []bool) int {
	n, from := 0, len(out) // from: the first appended output
	switch t := step.(type) {
	case *Expand:
		for _, j := range t.LogIdx {
			if out[j] {
				n++
			}
		}
		from = t.In
	case *StandardScale, *PCAReduce:
		from = 0
	case *Products:
		from = t.InCols
	}
	return n + len(idxOf(out[from:]))
}

// liveIn maps a step's live-output mask onto its inputs.
func liveIn(step Step, out []bool, inW int) []bool {
	in := make([]bool, inW)
	switch t := step.(type) {
	case *Expand:
		// Outputs: the In passthrough positions (log transforms replace
		// in place), then one dummy block per CPU target.
		copy(in, out[:t.In])
		pos := t.In
		for k, ti := range t.TargetIdx {
			for range levelSpecs(t.TargetCPU[k]) {
				if out[pos] {
					in[ti] = true
				}
				pos++
			}
		}
	case *StandardScale:
		copy(in, out)
	case selection:
		for i, kidx := range t.kept() {
			if out[i] && kidx < len(in) {
				in[kidx] = true
			}
		}
	case *PCAReduce:
		// A live component reads every input.
		if slices.Contains(out, true) {
			for i := range in {
				in[i] = true
			}
		}
	case *Products:
		copy(in, out[:t.InCols])
		for pi, pr := range t.Pairs {
			if out[t.InCols+pi] {
				in[pr[0]] = true
				in[pr[1]] = true
			}
		}
	}
	return in
}

// timePlanFrom turns the time stage's live-output mask into window index
// lists and the ring maintenance sets, and returns the live inputs: a
// base column is live if the passthrough keeps it or any live window
// reads one of its ring cells.
func (s *Streamer) timePlanFrom(out []bool) (*timePlan, []bool) {
	nc := s.baseCols
	tp := &timePlan{}
	prefNeed := make([]bool, nc)
	ringNeed := make([]bool, nc)
	pos := nc
	for range s.tf.AvgWindows {
		win := make([]int, 0, nc)
		for c := 0; c < nc; c++ {
			if out[pos] {
				win = append(win, c)
				prefNeed[c] = true
			}
			pos++
		}
		tp.avgIdx = append(tp.avgIdx, win)
	}
	for range s.tf.LagWindows {
		win := make([]int, 0, nc)
		for c := 0; c < nc; c++ {
			if out[pos] {
				win = append(win, c)
				ringNeed[c] = true
			}
			pos++
		}
		tp.lagIdx = append(tp.lagIdx, win)
	}
	tp.prefIdx = idxOf(prefNeed)
	tp.ringIdx = idxOf(ringNeed)
	tp.avgPos = ringPos(tp.avgIdx, tp.prefIdx, nc)
	tp.lagPos = ringPos(tp.lagIdx, tp.ringIdx, nc)

	in := make([]bool, nc)
	for c := 0; c < nc; c++ {
		in[c] = out[c] || prefNeed[c] || ringNeed[c]
	}
	return tp, in
}

// ringPos maps each window's output columns onto their cells in a packed
// ring row holding the columns in set.
func ringPos(wins [][]int, set []int, nc int) [][]int {
	cell := make([]int, nc)
	for p, c := range set {
		cell[c] = p
	}
	pos := make([][]int, len(wins))
	for w, win := range wins {
		pos[w] = make([]int, len(win))
		for i, c := range win {
			pos[w][i] = cell[c]
		}
	}
	return pos
}
