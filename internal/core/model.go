// Package core assembles the paper's contribution: the monitorless model —
// a feature pipeline plus a random-forest classifier trained on labeled
// platform metrics from representative services (§3) — and the online
// engine that turns per-container metric vectors into saturation
// probabilities (§2). Per-instance fleet state and the per-application
// OR live in internal/serving.
package core

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"monitorless/internal/dataset"
	"monitorless/internal/features"
	"monitorless/internal/frame"
	"monitorless/internal/ml/forest"
	"monitorless/internal/ml/tree"
)

// TrainConfig bundles the pipeline layout and classifier hyper-parameters.
type TrainConfig struct {
	// Pipeline is the §3.3 feature-engineering layout.
	Pipeline features.Config
	// Forest holds the classifier hyper-parameters (§3.4's tuning:
	// 250 trees, 20 samples per leaf, information gain, no class weights).
	Forest forest.Config
	// Threshold is the decision threshold (paper: 0.4 to bias against
	// false negatives, §4). Zero selects 0.4.
	Threshold float64
}

// DefaultTrainConfig returns the paper's selected configuration.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Pipeline: features.DefaultConfig(),
		Forest: forest.Config{
			NumTrees:       250,
			MinSamplesLeaf: 20,
			Criterion:      tree.Entropy,
		},
		Threshold: 0.4,
	}
}

// Model is a trained monitorless saturation classifier.
type Model struct {
	// Pipeline engineers raw metric vectors into model features.
	Pipeline *features.Pipeline
	// Forest is the fitted classifier.
	Forest *forest.Forest
	// Threshold is the decision threshold on P(saturated).
	Threshold float64
	// RawSchema is the raw metric schema the model was trained on — the
	// single fingerprintable schema representation (frame.Schema.Hash)
	// shared with the dataset layer and the model bundle.
	RawSchema frame.Schema
	// Fingerprint is the training-distribution sketch of the raw frame
	// (per-column moments + quantile occupancies), the drift-detection
	// reference the lifecycle plane scores serving traffic against. Nil
	// only for models assembled in-process without one.
	Fingerprint *frame.Fingerprint
	// TrainSamples and TrainSaturatedFrac document the training set.
	TrainSamples       int
	TrainSaturatedFrac float64
}

// RawNames lists the expected raw metric names in vector order.
func (m *Model) RawNames() []string { return m.RawSchema.Names() }

// Train fits the feature pipeline and classifier on a labeled dataset's
// frame; the feature pipeline and the forest both train on it without
// materializing rows or writing to it.
func Train(ds *dataset.Dataset, cfg TrainConfig) (*Model, error) {
	if ds == nil {
		return nil, fmt.Errorf("core: empty training dataset")
	}
	return TrainFrame(ds.Frame(), cfg)
}

// TrainFrame fits the feature pipeline and classifier directly on a raw
// labeled frame.
func TrainFrame(raw *frame.Frame, cfg TrainConfig) (*Model, error) {
	if raw == nil || raw.Rows() == 0 {
		return nil, fmt.Errorf("core: empty training dataset")
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = 0.4
	}
	pipe, err := features.NewPipeline(cfg.Pipeline)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	engineered, err := pipe.FitFrame(raw)
	if err != nil {
		return nil, fmt.Errorf("core: feature pipeline: %w", err)
	}

	fcfg := cfg.Forest
	fcfg.Threshold = cfg.Threshold
	fr := forest.New(fcfg)
	if err := fr.FitFrame(engineered, nil, nil); err != nil {
		return nil, fmt.Errorf("core: forest: %w", err)
	}

	saturated := 0
	for _, l := range raw.Labels() {
		saturated += l
	}
	m := &Model{
		Pipeline:           pipe,
		Forest:             fr,
		Threshold:          cfg.Threshold,
		RawSchema:          raw.Schema(),
		Fingerprint:        frame.FingerprintFrame(raw, 0),
		TrainSamples:       raw.Rows(),
		TrainSaturatedFrac: float64(saturated) / float64(raw.Rows()),
	}
	m.watchLiveInputs()
	return m, nil
}

// watchLiveInputs narrows the fingerprint's drift watch list to the raw
// columns the pipeline's liveness plan proves it can read. Drift on any
// other column says nothing about the served model, which never reads
// it. A pipeline with no streamer keeps the default (watch everything).
func (m *Model) watchLiveInputs() {
	if m.Fingerprint == nil {
		return
	}
	if s, err := m.Pipeline.Streamer(); err == nil {
		m.Fingerprint.SetWatch(s.RawLive())
	}
}

// WindowSize returns the pipeline's warm-up horizon in samples (see
// features.Pipeline.WindowSize).
func (m *Model) WindowSize() int { return m.Pipeline.WindowSize() }

// Streamer returns the incremental feature evaluator for online serving:
// O(features) per sample, bit-identical to the batch table path.
func (m *Model) Streamer() (*features.Streamer, error) { return m.Pipeline.Streamer() }

// PredictFrame classifies every row of a raw frame (batch evaluation) and
// returns per-run prediction series aligned with the frame's spans. All
// rows are scored in one pass through the forest's flattened batch path
// (each tree's node slab walks every row before the next tree), which is
// bit-identical to the former per-row gather loop.
func (m *Model) PredictFrame(fr *frame.Frame) (map[int][]int, map[int][]float64, error) {
	engineered, err := m.Pipeline.TransformFrame(fr)
	if err != nil {
		return nil, nil, fmt.Errorf("core: predict frame: %w", err)
	}
	spans := engineered.Spans()
	if len(spans) == 0 {
		spans = []frame.Span{{ID: 0, Start: 0, End: engineered.Rows()}}
	}
	all := m.Forest.PredictProbaFrameRows(engineered, nil)
	preds := make(map[int][]int, len(spans))
	probs := make(map[int][]float64, len(spans))
	for _, sp := range spans {
		ps := make([]int, sp.End-sp.Start)
		qs := make([]float64, sp.End-sp.Start)
		copy(qs, all[sp.Start:sp.End])
		for k, q := range qs {
			if q >= m.Threshold {
				ps[k] = 1
			}
		}
		preds[sp.ID] = ps
		probs[sp.ID] = qs
	}
	return preds, probs, nil
}

// FeatureImportances pairs engineered feature names with the forest's
// importance weights, sorted descending (Table 4).
func (m *Model) FeatureImportances() []FeatureImportance {
	imp := m.Forest.FeatureImportances()
	names := m.Pipeline.OutputNames()
	n := len(imp)
	if len(names) < n {
		n = len(names)
	}
	out := make([]FeatureImportance, n)
	for i := 0; i < n; i++ {
		out[i] = FeatureImportance{Name: names[i], Importance: imp[i]}
	}
	// Insertion-friendly sort by descending importance.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Importance > out[j-1].Importance; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// FeatureImportance is one Table 4 row.
type FeatureImportance struct {
	Name       string
	Importance float64
}

// modelWire is the gob image of a model.
type modelWire struct {
	PipelineBlob       []byte
	Forest             *forest.Forest
	Threshold          float64
	RawSchema          frame.Schema
	Fingerprint        *frame.Fingerprint
	TrainSamples       int
	TrainSaturatedFrac float64
}

// encode is the model's gob image: the blob a bundle carries.
func (m *Model) encode() ([]byte, error) {
	blob, err := m.Pipeline.EncodeGob()
	if err != nil {
		return nil, fmt.Errorf("core: save: %w", err)
	}
	wire := modelWire{
		PipelineBlob:       blob,
		Forest:             m.Forest,
		Threshold:          m.Threshold,
		RawSchema:          m.RawSchema,
		Fingerprint:        m.Fingerprint,
		TrainSamples:       m.TrainSamples,
		TrainSaturatedFrac: m.TrainSaturatedFrac,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		return nil, fmt.Errorf("core: save: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeModel decodes a model blob written by encode.
func decodeModel(b []byte) (*Model, error) {
	var wire modelWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&wire); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	pipe, err := features.DecodePipeline(wire.PipelineBlob)
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	// The engine walks the forest straight over the pipeline's output
	// columns, so the two widths must agree.
	if wire.Forest == nil || wire.Forest.NumFeatures() != pipe.NumOutputs() {
		return nil, fmt.Errorf("core: load: forest does not read the pipeline's %d engineered features", pipe.NumOutputs())
	}
	m := &Model{
		Pipeline:           pipe,
		Forest:             wire.Forest,
		Threshold:          wire.Threshold,
		RawSchema:          wire.RawSchema,
		Fingerprint:        wire.Fingerprint,
		TrainSamples:       wire.TrainSamples,
		TrainSaturatedFrac: wire.TrainSaturatedFrac,
	}
	m.watchLiveInputs()
	return m, nil
}
