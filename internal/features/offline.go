package features

import (
	"fmt"
	"slices"

	"monitorless/internal/frame"
)

// This file is the offline driver: FitFrame and TransformFrame run the
// kernels StepBatchInto runs (batch.go), entering below its transposer.
// A chain of fitted steps runs over a frame's columns as views (n = rows):
// pass-through and selected columns alias their input, dead columns share
// one pad, and only the live computed columns are allocated, in one arena
// sized by the liveness plan; the final engineered columns are copied
// into the output frame. The time step runs the ring kernel with one slot
// per run span, tick t being one batch of the runs alive at t.
// TransformFrame runs the pipeline's chain under its liveness plan;
// applyChain runs a chain whose outputs are all live.

// timeGroup bounds the runs the time stage holds at once — the slab and
// each block's arena grow with it — so a frame with more runs plays them
// through the rings group by group. tickBlock is how many ticks (batches)
// the time stage gathers and scatters at once.
const (
	timeGroup = 64
	tickBlock = 16
)

// applyChain applies a chain of fitted steps to fr. Every output column
// is live, and only the intermediate columns they read are computed. fr
// is read-only; the fresh frame returned aliases its spans and labels.
func applyChain(steps []Step, fr *frame.Frame) (*frame.Frame, error) {
	s, err := chainStreamer(steps, fr.NumCols())
	if err != nil {
		return nil, err
	}
	return s.transformFrame(fr), nil
}

// chainStreamer builds the streamer of a chain of fitted steps that reads
// w columns.
func chainStreamer(steps []Step, w int) (*Streamer, error) {
	return (&Pipeline{Steps: steps, InCols: w}).Streamer()
}

// transformFrame runs the streamer's chain over a whole frame (whose width
// the caller checked) under its liveness plan: an intermediate column no
// engineered feature reads is never computed. fr is read-only.
func (s *Streamer) transformFrame(fr *frame.Frame) *frame.Frame {
	schema := fr.Schema()
	for _, step := range s.pipe.Steps {
		schema = stepSchema(step, schema)
	}
	n := fr.Rows()
	b := BatchScratch{arena: make([]float64, s.plan.computed*n)}
	cols := fr.Cols(nil)
	for i, step := range s.pre {
		cols = batchApply(step, s.plan.pre[i], cols, n, &b)
	}
	if s.tf != nil {
		cols = s.timeCols(fr.Spans(), cols, n, &b)
	}
	for i, step := range s.post {
		cols = batchApply(step, s.plan.post[i], cols, n, &b)
	}
	out := frame.NewDense(schema, n, fr.Spans(), fr.Labels())
	for j, c := range cols {
		copy(out.Col(j), c)
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
	case selection:
		return selectSchema(in, t.kept())
	case *PCAReduce:
		out = make(frame.Schema, t.P.NumComponents())
		for i := range out {
			out[i] = Column{Name: fmt.Sprintf("PC%02d", i+1), Domain: "pca"}
		}
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

// timeCols runs s's time step over n rows held column-wise, rows grouped
// into spans (none: one run). Base columns pass through; each live window
// is a fresh column of out's arena, which stays zero on rows outside
// every span; dead windows alias out's pad. A block of ticks' ring-set
// inputs is gathered, and its windows scattered, column by column, so
// each pass walks a few pages per run rather than a page per run and
// column a tick.
func (s *Streamer) timeCols(spans []frame.Span, in [][]float64, n int, out *BatchScratch) [][]float64 {
	tm, nc := s.plan.tm, s.baseCols
	next := append(out.nxt[:0], in...)
	var (
		win  []int       // live window columns' indices in next
		dsts [][]float64 // and their columns
	)
	need := make([]bool, nc) // the ring set: the inputs a live window reads
	for _, wins := range [][][]int{tm.avgIdx, tm.lagIdx} {
		for _, idx := range wins {
			for c := 0; c < nc; c++ {
				if len(idx) == 0 || idx[0] != c {
					next = append(next, out.pad(n))
					continue
				}
				idx = idx[1:]
				need[c] = true
				win = append(win, len(next))
				dsts = append(dsts, out.allocCol(n))
				next = append(next, dsts[len(dsts)-1])
			}
		}
	}
	if len(spans) == 0 {
		spans = []frame.Span{{End: n}}
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
				if !need[c] {
					continue
				}
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
			for q, dst := range dsts {
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
	out.cur, out.nxt = next, in[:0]
	return next
}
