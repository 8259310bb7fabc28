package tree_test

import (
	"fmt"

	"monitorless/internal/frame"
	"monitorless/internal/ml/tree"
)

// A depth-1 tree over CPU utilization renders as an operator-readable
// scaling rule (the paper's §5 interpretability direction).
func ExampleTree_Rules() {
	fr := frame.NewDense(frame.Schema{{Name: "C-CPU-U"}}, 4, nil, []int{0, 0, 1, 1})
	copy(fr.Col(0), []float64{10, 40, 85, 99})
	t := tree.New(tree.Config{MaxDepth: 1, MinSamplesLeaf: 1})
	if err := t.FitFrame(fr, nil, nil); err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, r := range t.Rules(fr.Schema().Names()) {
		fmt.Println(r)
	}
	// Output:
	// IF C-CPU-U <= 62.5 THEN not saturated (p=0.00)
	// IF C-CPU-U > 62.5 THEN SATURATED (p=1.00)
}
