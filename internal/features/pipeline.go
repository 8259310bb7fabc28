// Package features implements the paper's §3.3 feature engineering
// pipeline: hot-encoded CPU/MEM utilization levels, logarithmic scaling of
// unbounded byte metrics, standard-score normalization, random-forest
// importance filtering and PCA reduction, X-AVG/X-LAG time-dependent
// variants, multiplicative feature combinations, zero-variance removal,
// and the pipeline (§3.3.7) that orders them.
package features

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
	"time"

	"monitorless/internal/frame"
)

// ReduceKind selects a reduction step (§3.3.7 steps 3 and 5).
type ReduceKind string

// Reduction options.
const (
	ReduceNone   ReduceKind = "none"
	ReduceFilter ReduceKind = "filter"
	ReducePCA    ReduceKind = "pca"
)

// Column is the metadata of one feature column. It is an alias of
// frame.Col — the single schema representation shared by the dataset
// layer, this pipeline, and the model bundle (one fingerprint function,
// frame.Schema.Hash, instead of three parallel schema structs).
type Column = frame.Col

// Config declares a pipeline layout over the §3.3.7 grid axes.
type Config struct {
	// Normalize enables the StandardScaler step (step 2).
	Normalize bool
	// Reduce1 is the first reduction (step 3).
	Reduce1 ReduceKind
	// TimeFeatures enables X-AVG/X-LAG variants (step 4).
	TimeFeatures bool
	// Products enables multiplicative combinations (step 4).
	Products bool
	// Reduce2 is the second reduction (step 5).
	Reduce2 ReduceKind
	// FilterTopK is the per-run importance cut for filter reductions
	// (paper: 30).
	FilterTopK int
	// FilterTrees bounds the per-run filter forests (default 20).
	FilterTrees int
	// PCAMax / PCAVariance configure PCA reductions (paper: 50 / 99.99%).
	PCAMax      int
	PCAVariance float64
	// Seed makes the pipeline deterministic.
	Seed int64
}

// Validate rejects the combination the paper excludes as unfeasible:
// multiplicative expansion without a prior reduction (§3.3.7).
func (c Config) Validate() error {
	if c.Products && (c.Reduce1 == ReduceNone || c.Reduce1 == "") {
		return fmt.Errorf("features: products without a first reduction explode the feature space (excluded by the paper)")
	}
	for _, r := range []ReduceKind{c.Reduce1, c.Reduce2} {
		switch r {
		case "", ReduceNone, ReduceFilter, ReducePCA:
		default:
			return fmt.Errorf("features: unknown reduction %q", r)
		}
	}
	return nil
}

// DefaultConfig is the layout the paper's grid search selects: normalize,
// filter, time+products, filter again.
func DefaultConfig() Config {
	return Config{
		Normalize:    true,
		Reduce1:      ReduceFilter,
		TimeFeatures: true,
		Products:     true,
		Reduce2:      ReduceFilter,
		FilterTopK:   30,
	}
}

// Pipeline is the fitted §3.3 feature-engineering chain.
type Pipeline struct {
	Cfg     Config
	Steps   []Step
	OutCols []Column
	// RawCols preserves the raw input schema for the online path.
	RawCols []Column
	InCols  int

	// report is FitFrame's per-step ledger. Unexported, so gob neither
	// writes nor expects it: a decoded pipeline has none.
	report []StepReport
}

// StepReport is one step's row of the FitFrame ledger: how wide its
// input was and how long fitting it and transforming the training frame
// through it took.
type StepReport struct {
	Step             string
	InCols           int
	FitSeconds       float64
	TransformSeconds float64
}

// FitReport returns the per-step ledger of the last FitFrame on this
// pipeline, in step order; nil for a pipeline that was loaded rather
// than fitted. The rows add up to FitFrame's wall-clock time.
func (p *Pipeline) FitReport() []StepReport { return p.report }

// NewPipeline validates the config and returns an unfitted pipeline.
func NewPipeline(cfg Config) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Pipeline{Cfg: cfg}, nil
}

// buildReduce instantiates a reduction step.
func (p *Pipeline) buildReduce(kind ReduceKind, seedOffset int64) Step {
	switch kind {
	case ReduceFilter:
		return &RFFilter{TopK: p.Cfg.FilterTopK, Trees: p.Cfg.FilterTrees, Seed: p.Cfg.Seed + seedOffset}
	case ReducePCA:
		return &PCAReduce{MaxComponents: p.Cfg.PCAMax, VarianceTarget: p.Cfg.PCAVariance}
	default:
		return nil
	}
}

// fitPlan lists the configured layout's unfitted steps in order.
func (p *Pipeline) fitPlan() []Step {
	plan := []Step{&Expand{}}
	if p.Cfg.Normalize {
		plan = append(plan, &StandardScale{})
	}
	if s := p.buildReduce(p.Cfg.Reduce1, 101); s != nil {
		plan = append(plan, s)
	}
	if p.Cfg.TimeFeatures {
		plan = append(plan, &TimeFeatures{})
	}
	if p.Cfg.Products {
		plan = append(plan, &Products{})
	}
	if s := p.buildReduce(p.Cfg.Reduce2, 211); s != nil {
		plan = append(plan, s)
	}
	return append(plan, &DropZeroVariance{})
}

// FitFrame learns every step on the training frame and returns the
// transformed training frame. TimeFeatures and Products read only their
// input schema, so they are fitted on it and their widening deferred: an
// RFFilter after them fits run by run, each worker widening its own run,
// and its output is one pass of the whole chain computing only the kept
// columns (offline.go); any other step first gets the widened frame. So
// the ledger's rows for the widening steps carry their fit alone, and the
// step after them carries the widening: the filter's per-run widening in
// its fit and the chain pass in its transform, another step's widened
// frame in its fit. Each row's InCols is the step's logical input width.
func (p *Pipeline) FitFrame(fr *frame.Frame) (*frame.Frame, error) {
	p.InCols = fr.NumCols()
	p.RawCols = append([]Column(nil), fr.Schema()...)
	p.Steps = nil
	p.report = nil

	cur, schema := fr, fr.Schema() // schema: cur's, widened by wide
	var wide []Step                // fitted steps cur has not been through
	for _, step := range p.fitPlan() {
		start := time.Now()
		rep := StepReport{Step: step.Name(), InCols: len(schema)}
		var err error
		switch st := step.(type) {
		case *TimeFeatures, *Products:
			err = st.Fit(frame.NewDense(schema, 0, nil, nil))
		case *RFFilter:
			if len(wide) > 0 {
				var s *Streamer
				if s, err = chainStreamer(wide, cur.NumCols()); err == nil {
					err = st.fitRuns(schema, cur.NumRuns(), func(k int) *frame.Frame {
						return s.transformFrame(cur.RunView(k))
					})
				}
				break
			}
			err = st.Fit(cur)
		default:
			if len(wide) > 0 {
				cur, err = applyChain(wide, cur)
				wide = nil
			}
			if err == nil {
				err = step.Fit(cur)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("features: fit %s: %w", step.Name(), err)
		}
		fitted := time.Now()
		var next *frame.Frame
		switch step.(type) {
		case *TimeFeatures, *Products:
			wide = append(wide, step)
			schema = stepSchema(step, schema)
		default:
			next, err = applyChain(append(wide, step), cur)
			wide = nil
			if err != nil {
				return nil, fmt.Errorf("features: transform %s during fit: %w", step.Name(), err)
			}
			cur, schema = next, next.Schema()
		}
		p.Steps = append(p.Steps, step)
		rep.FitSeconds = fitted.Sub(start).Seconds()
		rep.TransformSeconds = time.Since(fitted).Seconds()
		p.report = append(p.report, rep)
	}
	p.OutCols = append([]Column(nil), cur.Schema()...)
	return cur, nil
}

// TransformFrame applies the fitted pipeline to a frame with the same raw
// schema as the training frame: the kernels and liveness plan of
// Streamer.StepBatchInto, so the same bits (offline.go).
func (p *Pipeline) TransformFrame(fr *frame.Frame) (*frame.Frame, error) {
	if len(p.Steps) == 0 {
		return nil, fmt.Errorf("features: pipeline is not fitted")
	}
	if fr.NumCols() != p.InCols {
		return nil, fmt.Errorf("features: pipeline fitted on %d raw cols, got %d", p.InCols, fr.NumCols())
	}
	s, err := p.Streamer()
	if err != nil {
		return nil, err
	}
	return s.transformFrame(fr), nil
}

// OutputNames lists the engineered feature names after fitting.
func (p *Pipeline) OutputNames() []string {
	out := make([]string, len(p.OutCols))
	for i, c := range p.OutCols {
		out[i] = c.Name
	}
	return out
}

// NumOutputs returns the engineered feature count.
func (p *Pipeline) NumOutputs() int { return len(p.OutCols) }

// WindowSize returns the warm-up horizon: after this many samples of an
// instance every X-AVG/X-LAG window reads only real history instead of
// the clamped run start (1 when time features are disabled).
func (p *Pipeline) WindowSize() int {
	if p.Cfg.TimeFeatures {
		for _, s := range p.Steps {
			if tf, ok := s.(*TimeFeatures); ok {
				return max(tf.maxWindows()) + 1
			}
		}
	}
	return 1
}

func registerGobTypes() {
	gob.Register(&Expand{})
	gob.Register(&StandardScale{})
	gob.Register(&RFFilter{})
	gob.Register(&PCAReduce{})
	gob.Register(&TimeFeatures{})
	gob.Register(&Products{})
	gob.Register(&DropZeroVariance{})
}

var gobOnce sync.Once

// EncodeGob serializes the fitted pipeline.
func (p *Pipeline) EncodeGob() ([]byte, error) {
	gobOnce.Do(registerGobTypes)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		return nil, fmt.Errorf("features: encode pipeline: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodePipeline deserializes a pipeline encoded with EncodeGob.
func DecodePipeline(data []byte) (*Pipeline, error) {
	gobOnce.Do(registerGobTypes)
	var p Pipeline
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&p); err != nil {
		return nil, fmt.Errorf("features: decode pipeline: %w", err)
	}
	return &p, nil
}
