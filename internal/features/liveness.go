package features

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
// Bit-identity with the offline pipeline is untouched by construction: a
// masked-off value is, by the backward pass, not an operand of any
// computation whose result survives to the final vector, and every
// surviving value is produced by exactly the offline arithmetic. The
// equivalence and fuzz tests compare final vectors, so they hold the
// plan to that claim.
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
// engineered feature. Nil means every column (nothing pruned, or an
// opaque step degraded the plan to all-live). Besides the transposer it
// tells the drift observer which raw columns are worth watching. Shared;
// callers must not modify it.
func (s *Streamer) RawLive() []bool { return s.plan.rawLive }

// kernelOutWidth reports a fitted row step's output width, or -1 for
// steps without a columnar kernel in batchApply (whose routing the plan
// cannot see).
func kernelOutWidth(step Step) int {
	switch t := step.(type) {
	case *Expand:
		out := t.In
		for _, cpu := range t.TargetCPU {
			out += len(levelSpecs(cpu))
		}
		return out
	case *StandardScale:
		return len(t.Mean)
	case *RFFilter:
		return len(t.Keep)
	case *DropZeroVariance:
		return len(t.Keep)
	case *Products:
		return t.InCols + len(t.Pairs)
	}
	return -1
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

func fullIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// fullTimePlan emits every window column and keeps both rings full width
// (identity positions) — the plan when liveness cannot be traced past the
// time stage.
func (s *Streamer) fullTimePlan() *timePlan {
	if s.tf == nil {
		return nil
	}
	all := fullIdx(s.baseCols)
	tp := &timePlan{prefIdx: all, ringIdx: all}
	for range s.tf.AvgWindows {
		tp.avgIdx = append(tp.avgIdx, all)
		tp.avgPos = append(tp.avgPos, all)
	}
	for range s.tf.LagWindows {
		tp.lagIdx = append(tp.lagIdx, all)
		tp.lagPos = append(tp.lagPos, all)
	}
	return tp
}

// buildBatchPlan runs the backward liveness pass over the fitted chain.
// If any step lacks a columnar kernel (PCA and friends — the logged
// TransformRow fallback), the plan degrades to all-live: that path
// gathers full rows, so no column is provably dead.
func buildBatchPlan(s *Streamer) *batchPlan {
	plan := &batchPlan{
		pre:  make([][]bool, len(s.pre)),
		post: make([][]bool, len(s.post)),
		tm:   s.fullTimePlan(),
	}

	// Forward width walk; bail to the all-live plan on any opaque step.
	w := s.pipe.InCols
	preIn := make([]int, len(s.pre))
	postIn := make([]int, len(s.post))
	opaque := false
	for i, st := range s.pre {
		preIn[i] = w
		if w = kernelOutWidth(st); w < 0 {
			opaque = true
			break
		}
	}
	if !opaque && s.tf != nil {
		w = s.baseCols * (1 + len(s.tf.AvgWindows) + len(s.tf.LagWindows))
	}
	if !opaque {
		for i, st := range s.post {
			postIn[i] = w
			if w = kernelOutWidth(st); w < 0 {
				opaque = true
				break
			}
		}
	}
	if opaque {
		return plan
	}

	// Backward pass: start all-live at the engineered output, map each
	// step's live outputs onto the inputs it actually reads.
	live := make([]bool, w)
	for i := range live {
		live[i] = true
	}
	for i := len(s.post) - 1; i >= 0; i-- {
		plan.post[i] = maskOrNil(live)
		live = liveIn(s.post[i], live, postIn[i])
	}
	if s.tf != nil {
		plan.tm, live = s.timePlanFrom(live)
	}
	for i := len(s.pre) - 1; i >= 0; i-- {
		plan.pre[i] = maskOrNil(live)
		live = liveIn(s.pre[i], live, preIn[i])
	}
	plan.rawLive = maskOrNil(live)
	return plan
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
	case *RFFilter:
		for i, kidx := range t.Keep {
			if out[i] && kidx < len(in) {
				in[kidx] = true
			}
		}
	case *DropZeroVariance:
		for i, kidx := range t.Keep {
			if out[i] && kidx < len(in) {
				in[kidx] = true
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
	default:
		for i := range in {
			in[i] = true
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
