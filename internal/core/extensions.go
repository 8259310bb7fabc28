// The paper's §5 discussion sketches four follow-up directions; this file
// implements three of them on top of the core model:
//
//   - Interpretability: distill the forest into a depth-restricted
//     decision tree and render operator-readable scaling rules.
//   - Scale-in: train a second classifier that detects *over-provisioned*
//     instances so the orchestrator can conservatively scale in.
//   - Architecture refinement: run inference at the monitoring agent and
//     ship only compact prediction reports to the orchestrator, trading
//     agent CPU for network traffic.
package core

import (
	"fmt"
	"math"
	"sort"

	"monitorless/internal/apps"
	"monitorless/internal/dataset"
	"monitorless/internal/features"
	"monitorless/internal/ml/tree"
	"monitorless/internal/pcp"
)

// ---------------------------------------------------------------------
// Interpretability (§5 "Interpretability").
// ---------------------------------------------------------------------

// DistillRules fits a depth-restricted CART tree to mimic the forest's
// decisions on the given raw table and returns its paths as readable
// rules, most-covered first. This is the paper's proposed alternative to
// LIME: a small surrogate model whose structure *is* the explanation.
func (m *Model) DistillRules(t *features.Table, maxDepth int) ([]tree.Rule, error) {
	if maxDepth <= 0 {
		maxDepth = 3
	}
	engineered, err := m.Pipeline.Transform(t)
	if err != nil {
		return nil, fmt.Errorf("core: distill: %w", err)
	}
	x, _, _ := engineered.Flatten()
	// The surrogate learns the *model's* labels, not the ground truth.
	y := make([]int, len(x))
	for i, row := range x {
		if m.Forest.PredictProba(row) >= m.Threshold {
			y[i] = 1
		}
	}
	surrogate := tree.New(tree.Config{MaxDepth: maxDepth, MinSamplesLeaf: 10, Criterion: tree.Entropy})
	if err := surrogate.Fit(x, y); err != nil {
		return nil, fmt.Errorf("core: distill surrogate: %w", err)
	}
	rules := surrogate.Rules(m.Pipeline.OutputNames())
	sort.SliceStable(rules, func(i, j int) bool {
		// Saturation rules first, then by confidence.
		if rules[i].Saturated != rules[j].Saturated {
			return rules[i].Saturated
		}
		return rules[i].Prob > rules[j].Prob
	})
	return rules, nil
}

// SurrogateFidelity measures how often a depth-restricted surrogate agrees
// with the forest on the given table — the interpretability/accuracy
// trade-off the paper wants to explore.
func (m *Model) SurrogateFidelity(t *features.Table, maxDepth int) (float64, error) {
	if maxDepth <= 0 {
		maxDepth = 3
	}
	engineered, err := m.Pipeline.Transform(t)
	if err != nil {
		return 0, err
	}
	x, _, _ := engineered.Flatten()
	y := make([]int, len(x))
	for i, row := range x {
		if m.Forest.PredictProba(row) >= m.Threshold {
			y[i] = 1
		}
	}
	surrogate := tree.New(tree.Config{MaxDepth: maxDepth, MinSamplesLeaf: 10, Criterion: tree.Entropy})
	if err := surrogate.Fit(x, y); err != nil {
		return 0, err
	}
	agree := 0
	for i, row := range x {
		if surrogate.Predict(row) == y[i] {
			agree++
		}
	}
	return float64(agree) / float64(len(x)), nil
}

// ---------------------------------------------------------------------
// Scale-in classifier (§5 "Using monitorless for autoscaling").
// ---------------------------------------------------------------------

// BuildScaleInDataset relabels a generated training corpus for the
// over-provisioning detector: a sample is positive when the application
// was *not* saturated and its KPI sat below idleFrac of the saturation
// threshold Υ — i.e. the instance could serve the load with fewer
// replicas. Runs without a discovered Υ are skipped (their idleness
// cannot be judged).
func BuildScaleInDataset(rep *dataset.Report, idleFrac float64) (*dataset.Dataset, error) {
	if rep == nil || rep.Dataset == nil {
		return nil, fmt.Errorf("core: nil training report")
	}
	if idleFrac <= 0 || idleFrac >= 1 {
		return nil, fmt.Errorf("core: idleFrac %v outside (0,1)", idleFrac)
	}
	out := &dataset.Dataset{Defs: rep.Dataset.Defs}
	for _, s := range rep.Dataset.Samples {
		lab, ok := rep.Thresholds[s.RunID]
		if !ok || !lab.Saturates() {
			continue
		}
		ns := s
		ns.Label = 0
		if s.Label == 0 && s.KPI < idleFrac*lab.Threshold {
			ns.Label = 1 // over-provisioned
		}
		out.Samples = append(out.Samples, ns)
	}
	if len(out.Samples) == 0 {
		return nil, fmt.Errorf("core: no labeled samples for scale-in training")
	}
	return out, nil
}

// TrainScaleIn fits the over-provisioning classifier. The same pipeline
// layout applies; the decision threshold is conservative (0.6) because
// wrongly scaling in is costlier than keeping a replica (§5).
func TrainScaleIn(rep *dataset.Report, cfg TrainConfig, idleFrac float64) (*Model, error) {
	ds, err := BuildScaleInDataset(rep, idleFrac)
	if err != nil {
		return nil, err
	}
	if cfg.Threshold == 0 || cfg.Threshold == 0.4 {
		cfg.Threshold = 0.6
	}
	m, err := Train(ds, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: scale-in: %w", err)
	}
	return m, nil
}

// ---------------------------------------------------------------------
// Agent-side inference (§5 "Refine the architecture").
// ---------------------------------------------------------------------

// PredictionReport is the compact agent→orchestrator message of the
// offloaded architecture: per-instance probabilities instead of full
// metric vectors.
type PredictionReport struct {
	// T is the observation second.
	T int
	// Probs maps instance ID to P(saturated).
	Probs map[string]float64
}

// WireSize estimates the serialized bytes of the report (id strings plus
// one float each, with a small framing overhead).
func (r PredictionReport) WireSize() int {
	size := 8
	for id := range r.Probs {
		size += len(id) + 8
	}
	return size
}

// ObservationWireSize estimates the serialized bytes of the centralized
// architecture's full-vector message for comparison.
func ObservationWireSize(obs pcp.Observation) int {
	size := 8
	// Map-range order is safe here: integer size sums are commutative.
	for id, vec := range obs.Vectors {
		size += len(id) + 8*len(vec)
	}
	return size
}

// EdgeAgent runs the saturation model next to the monitoring agent (§5's
// offloading refinement): it scores the agent's observations on its own
// Engine — the same one the Orchestrator runs, so edge and central
// probabilities are bit-identical — and emits only PredictionReports.
type EdgeAgent struct {
	agent *pcp.Agent
	model *Model
	eng   *Engine // minted on first Observe (the streamer build can fail)

	// BytesSaved accumulates the traffic difference versus shipping the
	// raw vectors (the quantity §5 wants to trade against agent CPU).
	BytesSaved int
}

// NewEdgeAgent wraps a monitoring agent with local inference.
func NewEdgeAgent(agent *pcp.Agent, model *Model) *EdgeAgent {
	return &EdgeAgent{agent: agent, model: model}
}

// Observe samples the engine, infers locally, and returns the compact
// report. ok is false until the agent has a rate baseline.
func (e *EdgeAgent) Observe(eng *apps.Engine) (PredictionReport, bool, error) {
	obs, ok := e.agent.Observe(eng)
	if !ok {
		return PredictionReport{T: obs.T}, false, nil
	}
	if e.eng == nil {
		str, err := e.model.Streamer()
		if err != nil {
			return PredictionReport{}, false, fmt.Errorf("core: edge predict: %w", err)
		}
		e.eng = NewEngine(e.model, str)
	}
	ids, probs, err := e.eng.predictVectors(obs.Vectors)
	if err != nil {
		return PredictionReport{}, false, fmt.Errorf("core: edge predict: %w", err)
	}
	report := PredictionReport{T: obs.T, Probs: make(map[string]float64, len(ids))}
	for k, id := range ids {
		report.Probs[id] = probs[k]
	}
	e.BytesSaved += ObservationWireSize(obs) - report.WireSize()
	return report, true, nil
}

// Forget drops a departed instance's feature state.
func (e *EdgeAgent) Forget(id string) {
	if e.eng != nil {
		e.eng.Release(id)
	}
}

// IngestReport feeds an edge agent's report into the orchestrator, which
// then only applies the threshold and the OR aggregation — no feature
// engineering at the center.
func (o *Orchestrator) IngestReport(r PredictionReport) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for id, prob := range r.Probs {
		if math.IsNaN(prob) {
			continue
		}
		o.setPrediction(id, prob, r.T)
	}
}
