package features

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"monitorless/internal/frame"
)

// liveFrame builds a wide synthetic frame (many raw metrics, a clear
// signal in a handful of them) so an aggressive importance filter leaves
// most expanded columns provably dead.
func liveFrame(runs, rowsPerRun, width int, seed int64) *frame.Frame {
	r := rand.New(rand.NewSource(seed))
	cols := []Column{{Name: "C-CPU-U", Domain: "cpu", Util: true}}
	for i := 1; i < width; i++ {
		c := Column{Name: fmt.Sprintf("metric.%02d", i), Domain: "other"}
		if i%3 == 0 {
			c.Log = true
			c.Name = fmt.Sprintf("bytes.%02d", i)
			c.Domain = "disk"
		}
		cols = append(cols, c)
	}
	rows := make([][][]float64, runs)
	labels := make([][]int, runs)
	for g := range rows {
		for i := 0; i < rowsPerRun; i++ {
			util := 100 * r.Float64()
			lbl := 0
			if util > 85 {
				lbl = 1
			}
			row := make([]float64, width)
			row[0] = util
			for j := 1; j < width; j++ {
				if j%4 == 0 {
					row[j] = util * (1 + 0.1*r.NormFloat64()) // correlated
				} else {
					row[j] = 1e5 * r.Float64()
				}
			}
			rows[g] = append(rows[g], row)
			labels[g] = append(labels[g], lbl)
		}
	}
	return buildFrame(cols, rows, labels)
}

func countLive(mask []bool, width int) int {
	if mask == nil {
		return width
	}
	n := 0
	for _, v := range mask {
		if v {
			n++
		}
	}
	return n
}

// TestBatchPlanMasksDeadColumns holds the liveness pass to its point: on
// a paper-layout pipeline whose importance filter keeps a small fraction
// of the expanded columns, the plan must actually prune — raw transposes,
// pre-filter kernel outputs and ring maintenance all narrower than the
// unmasked widths. (Bit-identity under the plan is separately proven by
// TestStepBatchMatchesSerialBitIdentical and FuzzStepBatchVsTransformFrame.)
func TestBatchPlanMasksDeadColumns(t *testing.T) {
	train := liveFrame(4, 120, 40, 17)
	pipe, err := NewPipeline(Config{
		Normalize:    true,
		Reduce1:      ReduceFilter,
		TimeFeatures: true,
		Products:     true,
		Reduce2:      ReduceFilter,
		FilterTopK:   8,
		FilterTrees:  10,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.FitFrame(train); err != nil {
		t.Fatal(err)
	}
	str, err := pipe.Streamer()
	if err != nil {
		t.Fatal(err)
	}
	plan := str.plan
	if plan == nil {
		t.Fatal("streamer has no batch plan")
	}
	if plan.rawLive == nil {
		t.Fatal("rawLive mask is nil: no raw column pruned despite FilterTopK 8 of 40 inputs")
	}
	rawLive := countLive(plan.rawLive, str.pipe.InCols)
	if rawLive >= str.pipe.InCols {
		t.Fatalf("rawLive keeps all %d raw columns", rawLive)
	}
	t.Logf("raw: %d/%d live", rawLive, str.pipe.InCols)
	masked := 0
	for i, m := range plan.pre {
		if m != nil {
			masked++
			t.Logf("pre[%d] %s: %d/%d live", i, str.pre[i].Name(), countLive(m, len(m)), len(m))
		}
	}
	if masked == 0 {
		t.Fatal("no pre-time step mask engaged")
	}
	// Ring maintenance must be exactly the union of what the live window
	// outputs read — no column maintained for nothing, none missing.
	if str.tf != nil {
		prefNeed := make([]bool, str.baseCols)
		for _, win := range plan.tm.avgIdx {
			for _, c := range win {
				prefNeed[c] = true
			}
		}
		ringNeed := make([]bool, str.baseCols)
		for _, win := range plan.tm.lagIdx {
			for _, c := range win {
				ringNeed[c] = true
			}
		}
		if got, want := plan.tm.prefIdx, idxOf(prefNeed); len(got) != len(want) {
			t.Fatalf("prefIdx %v, want union of avg windows %v", got, want)
		}
		if got, want := plan.tm.ringIdx, idxOf(ringNeed); len(got) != len(want) {
			t.Fatalf("ringIdx %v, want union of lag windows %v", got, want)
		}
		t.Logf("rings: %d/%d prefix, %d/%d base maintained",
			len(plan.tm.prefIdx), str.baseCols, len(plan.tm.ringIdx), str.baseCols)
	}
}

// TestDropZeroVarianceLivenessMatchesBruteForce checks the backward pass
// through a DropZeroVariance step whose outputs are only partly live
// (an importance filter after it keeps two of its four outputs) against
// a brute-force reference: a raw column is live iff perturbing it moves
// some engineered output.
func TestDropZeroVarianceLivenessMatchesBruteForce(t *testing.T) {
	const width, rows = 6, 8
	cols := make([]Column, width)
	for j := range cols {
		cols[j] = Column{Name: fmt.Sprintf("m%d", j), Domain: "other"}
	}
	raw := frame.NewDense(cols, rows, []frame.Span{{ID: 1, End: rows}}, nil)
	r := rand.New(rand.NewSource(23))
	for j := 0; j < width; j++ {
		for i := range raw.Col(j) {
			raw.Col(j)[i] = r.Float64()
		}
	}
	pipe := &Pipeline{InCols: width, Steps: []Step{
		&DropZeroVariance{Keep: []int{0, 2, 3, 5}},
		&RFFilter{Keep: []int{1, 3}},
	}}
	str, err := pipe.Streamer()
	if err != nil {
		t.Fatal(err)
	}
	base, err := pipe.TransformFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < width; k++ {
		bumped := recut(raw, []int{rows}) // copies every column
		for i := range bumped.Col(k) {
			bumped.Col(k)[i] += 1
		}
		out, err := pipe.TransformFrame(bumped)
		if err != nil {
			t.Fatal(err)
		}
		moved := false
		for j := 0; j < out.NumCols(); j++ {
			moved = moved || !slices.Equal(out.Col(j), base.Col(j))
		}
		if live := str.RawLive() == nil || str.RawLive()[k]; live != moved {
			t.Errorf("raw column %d: plan says live=%v, perturbing it moves an output: %v", k, live, moved)
		}
	}
}
