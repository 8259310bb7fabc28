// The paper's §5 "Interpretability" direction on top of the core model:
// distill the forest into a depth-restricted decision tree and render
// operator-readable scaling rules. (§5's agent-side inference is
// serving.EdgeAgent.)
package core

import (
	"fmt"
	"sort"

	"monitorless/internal/frame"
	"monitorless/internal/ml/tree"
)

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
