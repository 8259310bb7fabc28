package features

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"monitorless/internal/dataset"
	"monitorless/internal/frame"
)

// table1Corpus is an 8-run, 300 s Table 1 corpus: wide enough that the
// paper layout's second filter sees more than 600 columns and takes its
// √d branch, small enough to fit many layouts on.
var table1Corpus = sync.OnceValues(func() (*frame.Frame, error) {
	fr, _, err := dataset.GenerateFrame(dataset.Table1()[:8], dataset.GenOptions{Duration: 300, Seed: 7})
	return fr, err
})

func loadTable1Corpus(t testing.TB) *frame.Frame {
	t.Helper()
	fr, err := table1Corpus()
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

// eagerFit is the test-only reference for FitFrame: every plan step is
// fitted on its predecessor's whole output, which applyStep materialises
// with every column live.
func eagerFit(p *Pipeline, fr *frame.Frame) ([]Step, *frame.Frame, error) {
	var steps []Step
	cur := fr
	for _, step := range p.fitPlan() {
		if err := step.Fit(cur); err != nil {
			return nil, nil, fmt.Errorf("fit %s: %w", step.Name(), err)
		}
		next, err := applyStep(step, cur)
		if err != nil {
			return nil, nil, fmt.Errorf("apply %s: %w", step.Name(), err)
		}
		steps, cur = append(steps, step), next
	}
	return steps, cur, nil
}

// TestFitFrameMatchesEagerFit holds FitFrame's deferred widening — the
// time and product steps fitted on the schema, the second filter fitted
// run by run, the frame widened first for any other step — to the eager
// fit: the same fitted steps and the same output bits, for every second
// reduction with and without products, at one and at eight workers.
func TestFitFrameMatchesEagerFit(t *testing.T) {
	fr := loadTable1Corpus(t)
	for _, reduce2 := range []ReduceKind{ReduceFilter, ReduceNone, ReducePCA} {
		for _, products := range []bool{true, false} {
			cfg := DefaultConfig()
			cfg.Reduce2, cfg.Products, cfg.Seed = reduce2, products, 9
			if reduce2 == ReducePCA {
				// PCA's eigensolver is cubic in its input width, so its arms
				// widen by one deferred step each, after a narrow first
				// filter: products alone, or time features alone.
				cfg.FilterTopK, cfg.TimeFeatures = 3, !products
			}
			t.Run(fmt.Sprintf("reduce2=%s/products=%v", reduce2, products), func(t *testing.T) {
				ref, err := NewPipeline(cfg)
				if err != nil {
					t.Fatal(err)
				}
				wantSteps, want, err := eagerFit(ref, fr)
				if err != nil {
					t.Fatal(err)
				}
				if pr, ok := wantSteps[4].(*Products); ok && reduce2 == ReduceFilter {
					if w := pr.InCols + len(pr.Pairs); w <= 600 {
						t.Fatalf("the second filter sees %d columns; the corpus no longer takes its √d branch", w)
					}
				}
				for _, procs := range []int{1, 8} {
					prev := runtime.GOMAXPROCS(procs)
					p, err := NewPipeline(cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, err := p.FitFrame(fr)
					runtime.GOMAXPROCS(prev)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(p.Steps, wantSteps) {
						t.Fatalf("GOMAXPROCS %d: fitted steps differ from the eager fit", procs)
					}
					framesEqualBits(t, want, got)
				}
			})
		}
	}
}

// planComputed counts, from a streamer's liveness plan, the columns one
// pass of its chain computes: each kernel's live outputs that are neither
// an input passed through nor one selected.
func planComputed(s *Streamer) int {
	n := 0
	steps := func(chain []Step, masks [][]bool, w int) int {
		for i, step := range chain {
			out, err := stepWidth(step, w)
			if err != nil {
				panic(err)
			}
			live := func(j int) bool { return masks[i] == nil || masks[i][j] }
			from := out // first appended output
			switch t := step.(type) {
			case *Expand:
				for _, j := range t.LogIdx {
					if live(j) {
						n++
					}
				}
				from = t.In
			case *StandardScale:
				from = 0
			case *Products:
				from = t.InCols
			}
			for j := from; j < out; j++ {
				if live(j) {
					n++
				}
			}
			w = out
		}
		return w
	}
	w := steps(s.pre, s.plan.pre, s.pipe.InCols)
	if s.tf != nil {
		for _, idx := range append(append([][]int(nil), s.plan.tm.avgIdx...), s.plan.tm.lagIdx...) {
			n += len(idx)
		}
		w, _ = stepWidth(s.tf, w)
	}
	steps(s.post, s.plan.post, w)
	return n
}

// TestTransformFrameAllocationBound holds TransformFrame to the bytes its
// liveness plan needs: the live computed columns and the engineered
// output, within a quarter, plus a fixed slack for the schema, the time
// stage's per-block scratch and the ring slab. A driver that materialised
// any intermediate frame (1 471 columns on the paper layout) would not
// fit.
func TestTransformFrameAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	fr := loadTable1Corpus(t)
	p, err := NewPipeline(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.FitFrame(fr); err != nil {
		t.Fatal(err)
	}
	s, err := p.Streamer()
	if err != nil {
		t.Fatal(err)
	}
	computed := planComputed(s)
	if s.plan.computed != computed {
		t.Fatalf("the plan sizes its arena for %d columns, its masks compute %d", s.plan.computed, computed)
	}
	if _, err := p.TransformFrame(fr); err != nil { // warm one-time state
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := p.TransformFrame(fr)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const slack = 1 << 20
	got := after.TotalAlloc - before.TotalAlloc
	need := uint64(computed+out.NumCols()) * uint64(fr.Rows()) * 8
	t.Logf("%d rows: %d computed + %d output columns = %d B; allocated %d B", fr.Rows(), computed, out.NumCols(), need, got)
	if got > need+need/4+slack {
		t.Fatalf("TransformFrame allocated %d B, want ≤ 1.25 × %d B + %d B", got, need, slack)
	}
}
