// The paper's §5 discussion sketches four follow-up directions; this file
// implements two of them on top of the core model:
//
//   - Interpretability: distill the forest into a depth-restricted
//     decision tree and render operator-readable scaling rules.
//   - Architecture refinement: run inference at the monitoring agent and
//     ship only compact prediction reports to the central service,
//     trading agent CPU for network traffic.
package core

import (
	"fmt"
	"sort"

	"monitorless/internal/apps"
	"monitorless/internal/frame"
	"monitorless/internal/ml/tree"
	"monitorless/internal/pcp"
)

// ---------------------------------------------------------------------
// Interpretability (§5 "Interpretability").
// ---------------------------------------------------------------------

// Distill fits a depth-restricted CART tree (maxDepth <= 0 selects 3) to
// mimic the forest's decisions on the given raw frame and returns its
// paths as readable rules, most-covered first, plus its fidelity: the
// share of rows on which the surrogate agrees with the forest. This is the
// paper's proposed alternative to LIME: a small surrogate model whose
// structure *is* the explanation, and the interpretability/accuracy
// trade-off the paper wants to explore.
func (m *Model) Distill(raw *frame.Frame, maxDepth int) ([]tree.Rule, float64, error) {
	if maxDepth <= 0 {
		maxDepth = 3
	}
	engineered, err := m.Pipeline.TransformFrame(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("core: distill: %w", err)
	}
	// The surrogate learns the *model's* labels, not the ground truth.
	probs := m.Forest.PredictProbaFrameRows(engineered, nil)
	y := make([]int, len(probs))
	for i, q := range probs {
		if q >= m.Threshold {
			y[i] = 1
		}
	}
	surrogate := tree.New(tree.Config{MaxDepth: maxDepth, MinSamplesLeaf: 10, Criterion: tree.Entropy})
	if err := surrogate.FitFrame(engineered, y, nil); err != nil {
		return nil, 0, fmt.Errorf("core: distill surrogate: %w", err)
	}
	sur := make([]float64, len(y))
	surrogate.AccumProba(engineered.Cols(nil), nil, sur)
	agree := 0
	for i, label := range y {
		if (sur[i] >= 0.5) == (label == 1) {
			agree++
		}
	}
	rules := surrogate.Rules(m.Pipeline.OutputNames())
	sort.SliceStable(rules, func(i, j int) bool {
		// Saturation rules first, then by confidence.
		if rules[i].Saturated != rules[j].Saturated {
			return rules[i].Saturated
		}
		return rules[i].Prob > rules[j].Prob
	})
	return rules, float64(agree) / float64(len(y)), nil
}

// ---------------------------------------------------------------------
// Agent-side inference (§5 "Refine the architecture").
// ---------------------------------------------------------------------

// PredictionReport is the compact agent→center message of the offloaded
// architecture: per-instance probabilities instead of full metric
// vectors.
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
// Engine — the same one each serving shard runs, so edge and central
// probabilities are bit-identical — and emits only PredictionReports.
type EdgeAgent struct {
	agent *pcp.Agent
	model *Model
	eng   *Engine // minted on first Observe (the streamer build can fail)

	// batch assembly scratch
	ids   []string
	slots []int32
	raws  [][]float64

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
	// One batch per observation. Every width is validated before any
	// instance is registered or stepped, so a bad vector rejects the whole
	// observation with no state changed.
	for id, vec := range obs.Vectors {
		if err := e.eng.streamer.CheckWidth(vec); err != nil {
			return PredictionReport{}, false, fmt.Errorf("core: edge predict: instance %s: %w", id, err)
		}
	}
	report := PredictionReport{T: obs.T, Probs: make(map[string]float64, len(obs.Vectors))}
	if len(obs.Vectors) == 0 {
		return report, true, nil
	}
	e.ids, e.slots, e.raws = e.ids[:0], e.slots[:0], e.raws[:0]
	// Map-range order is safe here: every instance's ring state and
	// prediction are independent of its position in the batch.
	for id, vec := range obs.Vectors {
		slot, _ := e.eng.Acquire(id)
		e.ids = append(e.ids, id)
		e.slots = append(e.slots, slot)
		e.raws = append(e.raws, vec)
	}
	if err := e.eng.Step(e.slots, e.raws); err != nil {
		return PredictionReport{}, false, fmt.Errorf("core: edge predict: %w", err)
	}
	for k, prob := range e.eng.Predict() {
		report.Probs[e.ids[k]] = prob
	}
	e.BytesSaved += ObservationWireSize(obs) - report.WireSize()
	return report, true, nil
}
