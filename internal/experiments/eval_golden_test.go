package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateEval = flag.Bool("update-eval", false, "rewrite the evaluation predictions fixture")

// TestEvalPredictionsGolden pins the Table 5–8 evaluation path bit for
// bit: the monitorless model's per-instance prediction series on the
// parity-scale Elgg run and their OR aggregation per tick. Refresh
// intentionally with:
//
//	go test ./internal/experiments/ -run TestEvalPredictionsGolden -update-eval
func TestEvalPredictionsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a full context")
	}
	ctx, err := NewContext(parityScale())
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	data, err := CollectElgg(ctx)
	if err != nil {
		t.Fatalf("CollectElgg: %v", err)
	}
	app, perInst, err := data.ModelPredictions(ctx.Model)
	if err != nil {
		t.Fatalf("ModelPredictions: %v", err)
	}
	series := func(s []int) string {
		var b strings.Builder
		for _, v := range s {
			b.WriteByte(byte('0' + v))
		}
		return b.String()
	}
	var b strings.Builder
	for _, id := range data.InstIDs {
		fmt.Fprintf(&b, "%s %s\n", id, series(perInst[id]))
	}
	fmt.Fprintf(&b, "app %s\n", series(app))
	got := b.String()

	path := filepath.Join("testdata", "eval_predictions_golden.txt")
	if *updateEval {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read fixture (run with -update-eval to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("evaluation predictions diverged from %s\nfirst difference: %s",
			path, parityFirstDiff(got, string(want)))
	}
}
