package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"monitorless/internal/ml/cv"
)

var updateAdaBoost = flag.Bool("update-adaboost", false, "rewrite the AdaBoost grouped-CV fixture")

// TestAdaBoostGroupedCVGolden pins the weighted exact-split path: Table 2's
// selected AdaBoost configuration (50 estimators, SAMME, best splitter,
// gini, min_samples_split 5) under grouped 5-fold CV on the parity-scale
// engineered frame, the same frame and folds Table 2 grid-searches at
// 2 500 rows. AdaBoost's boosting weights are never all 1, so a fast path
// keyed on unit weights must leave every fold's F1 bit-identical. Refresh
// intentionally with:
//
//	go test ./internal/experiments/ -run TestAdaBoostGroupedCVGolden -update-adaboost
func TestAdaBoostGroupedCVGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a full context")
	}
	s := parityScale()
	ctx, err := NewContext(s)
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	fr, err := engineeredTrainingFrame(ctx, 2500)
	if err != nil {
		t.Fatal(err)
	}
	var build cv.Factory
	for _, spec := range Algorithms(s) {
		if spec.Name == "AdaBoost" {
			build = spec.Build
		}
	}
	res, err := cv.CrossValidateFrame(build, chosenParams("AdaBoost", s), fr, nil, 5)
	if err != nil {
		t.Fatalf("cv: %v", err)
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "adaboost n_estimators 50 SAMME gini best min_samples_split 5 rows %d\n", fr.Rows())
	fmt.Fprintf(&b, "meanF1 %s meanAcc %s folds", f(res.MeanF1), f(res.MeanAccuracy))
	for _, v := range res.FoldF1 {
		b.WriteString(" " + f(v))
	}
	b.WriteByte('\n')
	got := b.String()

	path := filepath.Join("testdata", "adaboost_cv_golden.txt")
	if *updateAdaBoost {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read fixture (run with -update-adaboost to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("AdaBoost grouped CV diverged from %s\ngot:  %s\nwant: %s", path, got, want)
	}
}
