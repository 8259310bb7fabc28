package features

import (
	"fmt"
	"slices"

	"monitorless/internal/frame"
)

// This file is the offline driver: FitFrame and TransformFrame run the
// kernels StepBatchInto runs (batch.go), entering below its transposer. A
// row-local kernel runs once over a frame's columns (n = rows), writing
// straight into the output frame; the time step runs the ring kernel with
// one slot per run span, tick t being one batch of the runs alive at t.
// TransformFrame runs under the streamer's liveness plan; FitFrame, which
// fits each step on its predecessor's whole output, keeps every column
// live. PCAReduce, the one step without a kernel, runs its own Transform.

// timeGroup bounds the runs the time stage holds at once — the slab and
// each block's arena grow with it — so a frame with more runs plays them
// through the rings group by group. tickBlock is how many ticks (batches)
// the time stage gathers and scatters at once.
const (
	timeGroup = 64
	tickBlock = 16
)

// applyStep applies one fitted step to fr with every output column live.
// fr is read-only; the fresh frame it returns aliases fr's spans and
// labels.
func applyStep(step Step, fr *frame.Frame) (*frame.Frame, error) {
	if p, ok := step.(*PCAReduce); ok {
		return p.Transform(fr)
	}
	w, err := stepWidth(step, fr.NumCols())
	if err != nil {
		return nil, err
	}
	if tf, ok := step.(*TimeFeatures); ok {
		s := &Streamer{}
		s.setTime(tf)
		s.plan = buildBatchPlan(s, []int{tf.InCols, w})
		return timeFrame(s, fr), nil
	}
	return applyRow(step, nil, fr), nil
}

// transformFrame runs the streamer's chain over a whole frame (whose width
// the caller checked) under its liveness plan: an intermediate column no
// engineered feature reads is never computed and stays zero.
func (s *Streamer) transformFrame(fr *frame.Frame) *frame.Frame {
	cur := fr
	for i, step := range s.pre {
		cur = applyRow(step, s.plan.pre[i], cur)
	}
	if s.tf != nil {
		cur = timeFrame(s, cur)
	}
	for i, step := range s.post {
		cur = applyRow(step, s.plan.post[i], cur)
	}
	return cur
}

// applyRow runs a row-local step's kernel once over fr's columns, its
// live computed columns landing straight in the output frame.
func applyRow(step Step, live []bool, fr *frame.Frame) *frame.Frame {
	out := fr.Derive(stepSchema(step, fr.Schema()))
	b := BatchScratch{into: out}
	cols := batchApply(step, live, fr.Cols(nil), fr.Rows(), &b)
	if fr.Rows() > 0 {
		// Live columns passed through or selected come back aliasing fr.
		for j, c := range cols {
			if dst := out.Col(j); (live == nil || live[j]) && &c[0] != &dst[0] {
				copy(dst, c)
			}
		}
	}
	return out
}

// stepSchema names a fitted step's output columns for its input schema
// in (whose width stepWidth accepted).
func stepSchema(step Step, in frame.Schema) frame.Schema {
	out := in.Clone()
	switch t := step.(type) {
	case *Expand:
		for k, i := range t.TargetIdx {
			for _, spec := range levelSpecs(t.TargetCPU[k]) {
				out = append(out, Column{Name: t.Sources[k] + "-" + spec.Suffix, Domain: in[i].Domain, Binary: true})
			}
		}
	case *RFFilter:
		return selectSchema(in, t.Keep)
	case *DropZeroVariance:
		return selectSchema(in, t.Keep)
	case *TimeFeatures:
		for _, w := range t.AvgWindows {
			out = appendTimeCols(out, in, fmt.Sprintf("-AVG%d", w))
		}
		for _, w := range t.LagWindows {
			out = appendTimeCols(out, in, fmt.Sprintf("-LAGGED%d", w))
		}
	case *Products:
		for _, pr := range t.Pairs {
			a, b := in[pr[0]], in[pr[1]]
			dom := a.Domain
			if b.Domain != a.Domain {
				dom = a.Domain + "*" + b.Domain
			}
			out = append(out, Column{Name: a.Name + " × " + b.Name, Domain: dom})
		}
	}
	return out
}

func selectSchema(in frame.Schema, keep []int) frame.Schema {
	out := make(frame.Schema, len(keep))
	for i, k := range keep {
		out[i] = in[k]
	}
	return out
}

// appendTimeCols appends one window's variant of every input column.
func appendTimeCols(out, in frame.Schema, suffix string) frame.Schema {
	for _, c := range in {
		c.Name += suffix
		c.TimeDerived = true
		c.Binary = false
		out = append(out, c)
	}
	return out
}

// timeFrame applies s's time step to fr: base columns are copied, live
// windows come from the ring kernel (a frame without spans is one run;
// rows outside every span keep zero windows). A block of ticks' inputs is
// gathered, and its windows scattered, column by column, so each pass
// walks a few pages per run rather than a page per run and column a tick.
func timeFrame(s *Streamer, fr *frame.Frame) *frame.Frame {
	tm, nc := s.plan.tm, s.baseCols
	out := fr.Derive(stepSchema(s.tf, fr.Schema()))
	in := fr.Cols(nil)
	for c, src := range in {
		copy(out.Col(c), src)
	}
	var win []int // live window columns of out
	for wi, idx := range append(tm.avgIdx, tm.lagIdx...) {
		for _, c := range idx {
			win = append(win, nc*(1+wi)+c)
		}
	}
	spans := fr.Spans()
	if len(spans) == 0 {
		spans = []frame.Span{{End: fr.Rows()}}
	}
	sl := NewStateSlab(s)
	sl.EnsureSlots(min(len(spans), timeGroup))

	var (
		b          BatchScratch
		slots      []int32     // the block's batches back to back
		rows, ends []int       // frame row per sample; batch τ ends at ends[τ]
		ins, wins  [][]float64 // batch τ's inputs at ins[τ*nc:], live windows at wins[τ*len(win):]
		views      [][]float64
	)
	for g := 0; g < len(spans); g += timeGroup {
		group := spans[g:min(g+timeGroup, len(spans))]
		for k := range group {
			sl.ResetSlot(int32(k))
		}
		for t0 := 0; ; t0 += tickBlock {
			slots, rows, ends = slots[:0], rows[:0], ends[:0]
			for t := t0; t < t0+tickBlock; t++ {
				for k, sp := range group {
					if r := sp.Start + t; r < sp.End {
						slots = append(slots, int32(k))
						rows = append(rows, r)
					}
				}
				if len(rows) == 0 || len(ends) > 0 && len(rows) == ends[len(ends)-1] {
					break // every run of the group has ended
				}
				ends = append(ends, len(rows))
			}
			if len(ends) == 0 {
				break
			}
			b.aUsed = 0
			ins = slices.Grow(ins[:0], len(ends)*nc)[:len(ends)*nc]
			for c, src := range in {
				col := b.allocCol(len(rows))
				for i, r := range rows {
					col[i] = src[r]
				}
				lo := 0
				for τ, hi := range ends {
					ins[τ*nc+c] = col[lo:hi:hi]
					lo = hi
				}
			}
			wins = wins[:0]
			lo := 0
			for τ, hi := range ends {
				b.nxt = views[:0]
				views = s.batchTime(sl, slots[lo:hi], ins[τ*nc:(τ+1)*nc:(τ+1)*nc], hi-lo, &b)
				for _, j := range win {
					wins = append(wins, views[j])
				}
				lo = hi
			}
			for q, j := range win {
				dst := out.Col(j)
				lo := 0
				for τ, hi := range ends {
					src := wins[τ*len(win)+q]
					for i, r := range rows[lo:hi] {
						dst[r] = src[i]
					}
					lo = hi
				}
			}
		}
	}
	return out
}
