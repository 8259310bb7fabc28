package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"monitorless/internal/ml"
	"monitorless/internal/ml/cv"
	"monitorless/internal/ml/forest"
	"monitorless/internal/ml/tree"
)

var updateParity = flag.Bool("update-parity", false, "rewrite the pipeline parity fixture")

// parityScale is the reduced seed configuration the fixture is pinned to.
func parityScale() Scale {
	s := Small()
	s.TrainDuration = 200
	s.RampSeconds = 160
	s.Trees = 15
	s.FilterTrees = 10
	return s
}

// parityDump captures everything the Table 2 pipeline produces on the seed
// config, with every float rendered in its shortest round-trippable form:
// the engineered schema, the forest's feature importances, per-run
// prediction series, and a grouped 5-fold CV result for the selected
// random-forest configuration. Two dumps are equal iff the artifacts are
// bit-identical.
func parityDump(t *testing.T, ctx *Context) string {
	t.Helper()
	var b strings.Builder
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

	b.WriteString("schema: " + strings.Join(ctx.Model.Pipeline.OutputNames(), ",") + "\n")
	for _, fi := range ctx.Model.FeatureImportances() {
		fmt.Fprintf(&b, "importance %s %s\n", fi.Name, f(fi.Importance))
	}

	preds, probs, err := predictTrainingCorpus(ctx)
	if err != nil {
		t.Fatalf("predict training corpus: %v", err)
	}
	for _, id := range ctx.Report.Dataset.RunIDs() {
		fmt.Fprintf(&b, "run %d:", id)
		ps, qs := preds[id], probs[id]
		for j := range qs {
			fmt.Fprintf(&b, " %d/%s", ps[j], f(qs[j]))
		}
		b.WriteByte('\n')
	}

	res, err := crossValidateSelected(ctx)
	if err != nil {
		t.Fatalf("cv: %v", err)
	}
	fmt.Fprintf(&b, "cv meanF1 %s meanAcc %s folds", f(res.MeanF1), f(res.MeanAccuracy))
	for _, v := range res.FoldF1 {
		b.WriteString(" " + f(v))
	}
	b.WriteByte('\n')
	return b.String()
}

// predictTrainingCorpus batch-classifies the Table 1 corpus per run.
func predictTrainingCorpus(ctx *Context) (map[int][]int, map[int][]float64, error) {
	return ctx.Model.PredictFrame(ctx.Report.Dataset.Frame())
}

// crossValidateSelected runs grouped 5-fold CV for the paper's selected
// random-forest configuration over the engineered training corpus.
func crossValidateSelected(ctx *Context) (cv.Result, error) {
	fr, err := engineeredTrainingFrame(ctx, 0)
	if err != nil {
		return cv.Result{}, err
	}
	factory := func(p map[string]any) (ml.Classifier, error) {
		return forest.New(forest.Config{
			NumTrees:       10,
			MinSamplesLeaf: cv.Int(p, "min_samples_leaf", 20),
			Criterion:      tree.Entropy,
			Seed:           ctx.Scale.Seed,
		}), nil
	}
	return cv.CrossValidateFrame(factory, map[string]any{"min_samples_leaf": 20}, fr, nil, 5)
}

// TestTable2PipelineParityGolden locks the full Table 2 pipeline — dataset
// generation, feature engineering, forest training, batch prediction and
// grouped CV — to a committed fixture on the seed config. The fixture was
// generated on the row-oriented ([][]float64) data plane; the columnar
// frame refactor must reproduce it bit for bit. Refresh intentionally with:
//
//	go test ./internal/experiments/ -run TestTable2PipelineParityGolden -update-parity
func TestTable2PipelineParityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a full context")
	}
	ctx, err := NewContext(parityScale())
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	got := parityDump(t, ctx)

	path := filepath.Join("testdata", "table2_parity_golden.txt")
	if *updateParity {
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
		t.Fatalf("read fixture (run with -update-parity to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("Table 2 pipeline diverged from %s\ngot %d bytes, want %d bytes\nfirst difference: %s",
			path, len(got), len(want), parityFirstDiff(got, string(want)))
	}
}

func parityFirstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			ga, gb := la[i], lb[i]
			if len(ga) > 160 {
				ga = ga[:160] + "…"
			}
			if len(gb) > 160 {
				gb = gb[:160] + "…"
			}
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, ga, gb)
		}
	}
	return fmt.Sprintf("line count %d vs %d", len(la), len(lb))
}
