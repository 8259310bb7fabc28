package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"monitorless/internal/frame"
)

var updateLearnerFit = flag.Bool("update-learner-fit", false, "rewrite the learner fit fixture")

// learnerFitFrame is a small fixed frame shaped like an engineered
// training corpus: six runs of 50 rows over 8 roughly standardized
// columns, labelled by a noisy rule that mixes a linear term, a product
// and a threshold, so every learner has something non-trivial to fit.
func learnerFitFrame() *frame.Frame {
	const runs, perRun, cols = 6, 50, 8
	rng := rand.New(rand.NewSource(53))
	n := runs * perRun
	schema := make(frame.Schema, cols)
	for j := range schema {
		schema[j].Name = fmt.Sprintf("f%d", j)
	}
	spans := make([]frame.Span, runs)
	for k := range spans {
		spans[k] = frame.Span{ID: k, Start: k * perRun, End: (k + 1) * perRun}
	}
	labels := make([]int, n)
	fr := frame.NewDense(schema, n, spans, labels)
	for i := 0; i < n; i++ {
		shift := float64(i/perRun) * 0.15
		for j := 0; j < cols; j++ {
			fr.Set(i, j, rng.NormFloat64()+shift)
		}
		x := func(j int) float64 { return fr.Col(j)[i] }
		score := 0.9*x(0) + 0.6*x(1)*x(2) - 0.4*x(3) + 0.3*rng.NormFloat64()
		if x(4) > 1.2 {
			score += 1
		}
		if score > 0.4 {
			labels[i] = 1
		}
	}
	return fr
}

// TestLearnerFitGolden pins every Table 3 contender's fit at the paper's
// chosen parameters: each learner is fitted on a fixed frame twice, once
// on all rows and once on the rows of four of its six runs (the
// cross-validation route), and the sha256 of its PredictProba over every
// frame row must match the fixture. Refresh intentionally with:
//
//	go test ./internal/experiments/ -run TestLearnerFitGolden -update-learner-fit
func TestLearnerFitGolden(t *testing.T) {
	fr := learnerFitFrame()
	var subset []int
	for _, sp := range fr.Spans() {
		if sp.ID == 1 || sp.ID == 4 {
			continue
		}
		for i := sp.Start; i < sp.End; i++ {
			subset = append(subset, i)
		}
	}
	s := Small()
	var b strings.Builder
	buf := make([]float64, fr.NumCols())
	for _, spec := range Algorithms(s) {
		for _, route := range []struct {
			name string
			rows []int
		}{{"all", nil}, {"subset", subset}} {
			clf, err := spec.Build(chosenParams(spec.Name, s))
			if err != nil {
				t.Fatalf("%s: build: %v", spec.Name, err)
			}
			if err := clf.FitFrame(fr, nil, route.rows); err != nil {
				t.Fatalf("%s %s: fit: %v", spec.Name, route.name, err)
			}
			h := sha256.New()
			var word [8]byte
			for i := 0; i < fr.Rows(); i++ {
				buf = fr.Row(i, buf)
				binary.LittleEndian.PutUint64(word[:], math.Float64bits(clf.PredictProba(buf)))
				h.Write(word[:])
			}
			fmt.Fprintf(&b, "%s %s %s\n", spec.Name, route.name, hex.EncodeToString(h.Sum(nil)))
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "learner_fit.golden")
	if *updateLearnerFit {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read fixture (run with -update-learner-fit to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("learner fits diverged from %s\ngot:\n%swant:\n%s", path, got, want)
	}
}

// TestLearnersRejectBadTrainingData holds every Table 3 contender to the
// fit contract's hygiene: FitFrame on a frame holding a NaN, or with a
// label of 2 among its training rows, returns an error instead of
// fitting or panicking.
func TestLearnersRejectBadTrainingData(t *testing.T) {
	nan := learnerFitFrame()
	nan.Set(17, 3, math.NaN())
	bad := learnerFitFrame()
	y := append([]int(nil), bad.Labels()...)
	y[42] = 2
	s := Small()
	for _, spec := range Algorithms(s) {
		for _, tc := range []struct {
			name string
			fr   *frame.Frame
			y    []int
		}{{"NaN", nan, nil}, {"label 2", bad, y}} {
			t.Run(spec.Name+"/"+tc.name, func(t *testing.T) {
				clf, err := spec.Build(chosenParams(spec.Name, s))
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("FitFrame panicked: %v", r)
					}
				}()
				if err := clf.FitFrame(tc.fr, tc.y, nil); err == nil {
					t.Fatal("FitFrame accepted bad training data")
				}
			})
		}
	}
}
