package features

import (
	"fmt"
	"math"

	"monitorless/internal/frame"
)

// refTransformFrame is the test-only reference for the offline pipeline:
// each step's naive whole-frame transform, written independently of the
// columnar kernels — per column, per run, from the input frame's schema,
// with full-run prefix sums for the time windows. The equivalence tests
// and the step fuzz hold both Pipeline.TransformFrame and
// Streamer.StepBatchInto to it bit for bit, so neither is checked only
// against itself.
func refTransformFrame(p *Pipeline, fr *frame.Frame) (*frame.Frame, error) {
	if len(p.Steps) == 0 {
		return nil, fmt.Errorf("features: pipeline is not fitted")
	}
	if fr.NumCols() != p.InCols {
		return nil, fmt.Errorf("features: pipeline fitted on %d raw cols, got %d", p.InCols, fr.NumCols())
	}
	// derive returns a zeroed frame over fr's rows, spans and labels.
	derive := func(fr *frame.Frame, schema frame.Schema) *frame.Frame {
		return frame.NewDense(schema, fr.Rows(), fr.Spans(), fr.Labels())
	}
	// selectColumns copies the kept columns into a new frame.
	selectColumns := func(fr *frame.Frame, keep []int) (*frame.Frame, error) {
		schema := make(frame.Schema, len(keep))
		for i, k := range keep {
			if k < 0 || k >= fr.NumCols() {
				return nil, fmt.Errorf("frame: select column %d out of range (%d cols)", k, fr.NumCols())
			}
			schema[i] = fr.Schema()[k]
		}
		out := frame.NewDense(schema, fr.Rows(), append([]frame.Span(nil), fr.Spans()...), fr.Labels())
		for i, k := range keep {
			copy(out.Col(i), fr.Col(k))
		}
		return out, nil
	}
	cur := fr
	for _, step := range p.Steps {
		fr := cur
		var out *frame.Frame
		switch st := step.(type) {
		case *Expand:
			in := []Column(fr.Schema())
			idx, prefixes, isCPU := expandTargets(in)

			schema := fr.Schema().Clone()
			for k, i := range idx {
				for _, spec := range levelSpecs(isCPU[k]) {
					schema = append(schema, Column{
						Name:   prefixes[k] + "-" + spec.Suffix,
						Domain: in[i].Domain,
						Binary: true,
					})
				}
			}

			out = derive(fr, schema)
			// Base columns: copied, with §3.3.2 log scaling applied column-wise.
			for j := range in {
				src, dst := fr.Col(j), out.Col(j)
				if in[j].Log {
					for i, v := range src {
						dst[i] = math.Log10(1 + math.Max(v, 0))
					}
				} else {
					copy(dst, src)
				}
			}
			// Appended level bits, derived from the raw (pre-log) utilization.
			c := len(in)
			for k, i := range idx {
				src := fr.Col(i)
				for _, spec := range levelSpecs(isCPU[k]) {
					dst := out.Col(c)
					c++
					for r, v := range src {
						if spec.Test(v) {
							dst[r] = 1
						}
					}
				}
			}
		case *StandardScale:
			s := st
			if len(s.Mean) != fr.NumCols() {
				return nil, fmt.Errorf("features: standardize: fitted on %d cols, got %d", len(s.Mean), fr.NumCols())
			}
			out = derive(fr, fr.Schema().Clone())
			for j := 0; j < fr.NumCols(); j++ {
				src, dst := fr.Col(j), out.Col(j)
				if s.Std[j] > 0 {
					m, sd := s.Mean[j], s.Std[j]
					for i, v := range src {
						dst[i] = (v - m) / sd
					}
				}
				// Zero-variance columns stay 0 (derive zeroes the backing).
			}
		case *RFFilter:
			var err error
			if out, err = selectColumns(fr, st.Keep); err != nil {
				return nil, fmt.Errorf("features: rf-filter: %w", err)
			}
		case *PCAReduce:
			// Row by row: centre on the mean, then one dot product per
			// component, in component order.
			pc := st.P
			schema := make(frame.Schema, pc.NumComponents())
			for i := range schema {
				schema[i] = Column{Name: fmt.Sprintf("PC%02d", i+1), Domain: "pca"}
			}
			out = derive(fr, schema)
			row := make([]float64, fr.NumCols())
			for i := 0; i < fr.Rows(); i++ {
				row = fr.Row(i, row)
				for j := range row {
					row[j] -= pc.Mean[j]
				}
				for c := range schema {
					var s float64
					for j, w := range pc.Components.Row(c) {
						s += w * row[j]
					}
					out.Col(c)[i] = s
				}
			}
		case *TimeFeatures:
			tf := st
			if fr.NumCols() != tf.InCols {
				return nil, fmt.Errorf("features: time-features fitted on %d cols, got %d", tf.InCols, fr.NumCols())
			}
			base := fr.NumCols()
			schema := fr.Schema().Clone()
			for _, w := range tf.AvgWindows {
				for _, c := range fr.Schema() {
					nc := c
					nc.Name = c.Name + fmt.Sprintf("-AVG%d", w)
					nc.TimeDerived = true
					nc.Binary = false
					schema = append(schema, nc)
				}
			}
			for _, w := range tf.LagWindows {
				for _, c := range fr.Schema() {
					nc := c
					nc.Name = c.Name + fmt.Sprintf("-LAGGED%d", w)
					nc.TimeDerived = true
					nc.Binary = false
					schema = append(schema, nc)
				}
			}

			out = derive(fr, schema)
			for c := 0; c < base; c++ {
				copy(out.Col(c), fr.Col(c))
			}
			// Windows never cross a run boundary: every span restarts its
			// prefix-sum and lag clamping, exactly like the per-run row path.
			spans := fr.Spans()
			if len(spans) == 0 {
				spans = []frame.Span{{ID: 0, Start: 0, End: fr.Rows()}}
			}
			prefix := make([]float64, 0)
			for _, sp := range spans {
				n := sp.End - sp.Start
				if cap(prefix) < n+1 {
					prefix = make([]float64, n+1)
				}
				prefix = prefix[:n+1]
				for c := 0; c < base; c++ {
					src := fr.Col(c)[sp.Start:sp.End]
					prefix[0] = 0
					for j, v := range src {
						prefix[j+1] = prefix[j] + v
					}
					for wi, w := range tf.AvgWindows {
						dst := out.Col(base + wi*base + c)
						for j := 0; j < n; j++ {
							lo := j - w
							if lo < 0 {
								lo = 0
							}
							dst[sp.Start+j] = (prefix[j+1] - prefix[lo]) / float64(j-lo+1)
						}
					}
					lagBase := base + len(tf.AvgWindows)*base
					for wi, w := range tf.LagWindows {
						dst := out.Col(lagBase + wi*base + c)
						for j := 0; j < n; j++ {
							s2 := j - w
							if s2 < 0 {
								s2 = 0
							}
							dst[sp.Start+j] = src[s2]
						}
					}
				}
			}
		case *Products:
			p := st
			if fr.NumCols() != p.InCols {
				return nil, fmt.Errorf("features: products fitted on %d cols, got %d", p.InCols, fr.NumCols())
			}
			cols := fr.Schema()
			schema := fr.Schema().Clone()
			for _, pr := range p.Pairs {
				a, b := cols[pr[0]], cols[pr[1]]
				dom := a.Domain
				if b.Domain != a.Domain {
					dom = a.Domain + "*" + b.Domain
				}
				schema = append(schema, Column{
					Name:   a.Name + " × " + b.Name,
					Domain: dom,
				})
			}
			out = derive(fr, schema)
			for j := 0; j < fr.NumCols(); j++ {
				copy(out.Col(j), fr.Col(j))
			}
			for pi, pr := range p.Pairs {
				ca, cb := fr.Col(pr[0]), fr.Col(pr[1])
				dst := out.Col(fr.NumCols() + pi)
				for i := range dst {
					dst[i] = ca[i] * cb[i]
				}
			}
		case *DropZeroVariance:
			var err error
			if out, err = selectColumns(fr, st.Keep); err != nil {
				return nil, fmt.Errorf("features: drop-zero-variance: %w", err)
			}
		default:
			return nil, fmt.Errorf("features: reference: unknown step %s", step.Name())
		}
		cur = out
	}
	return cur, nil
}
