package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"monitorless/internal/ml/score"
)

// The shared context is expensive (full Table 1 generation + training);
// build it once per test binary at a reduced scale.
var (
	ctxOnce sync.Once
	ctx     *Context
	ctxErr  error
)

func testScale() Scale {
	s := Small()
	s.TrainDuration = 250
	s.RampSeconds = 200
	s.ElggDuration = 400
	s.TeaStoreDuration = 1000
	s.Trees = 30
	return s
}

func sharedContext(t *testing.T) *Context {
	t.Helper()
	ctxOnce.Do(func() { ctx, ctxErr = NewContext(testScale()) })
	if ctxErr != nil {
		t.Fatalf("NewContext: %v", ctxErr)
	}
	return ctx
}

func TestContextTrainingMix(t *testing.T) {
	c := sharedContext(t)
	frac := c.Report.Dataset.SaturatedFraction()
	// The paper's corpus is 26% saturated; ours must be in the same band.
	if frac < 0.15 || frac > 0.40 {
		t.Errorf("training saturated fraction %.2f, want ~0.26", frac)
	}
	if c.Model.Pipeline.NumOutputs() < 20 {
		t.Errorf("engineered features = %d, want a rich set", c.Model.Pipeline.NumOutputs())
	}
	if got := len(c.Report.Dataset.RunIDs()); got != 25 {
		t.Errorf("training corpus has %d runs, want the 25 of Table 1", got)
	}
}

func TestTable1Summary(t *testing.T) {
	c := sharedContext(t)
	rows := Table1Summary(c)
	if len(rows) != 25 {
		t.Fatalf("Table1Summary has %d rows, want 25", len(rows))
	}
	saturating := 0
	for _, r := range rows {
		if r.Samples == 0 {
			t.Errorf("run %d has no samples", r.ID)
		}
		if !r.NeverSat {
			saturating++
		}
	}
	if saturating < 12 {
		t.Errorf("only %d runs saturate; the corpus needs saturation diversity", saturating)
	}
}

func TestFigure2(t *testing.T) {
	fig, err := Figure2(testScale())
	if err != nil {
		t.Fatalf("Figure2: %v", err)
	}
	if len(fig.Loads) != len(fig.Observed) || len(fig.Smoothed) != len(fig.Loads) || len(fig.Difference) != len(fig.Loads) {
		t.Fatal("Figure 2 series misaligned")
	}
	// The knee must land near the 857 r/s capacity of Solr@3cores.
	if fig.KneeX < 500 || fig.KneeX > 1100 {
		t.Errorf("knee at %.0f req/s, want near ~857", fig.KneeX)
	}
	if fig.ThresholdY <= 0 || fig.ThresholdY > 1000 {
		t.Errorf("threshold Υ = %.1f out of range", fig.ThresholdY)
	}
}

func TestElggEvaluationShape(t *testing.T) {
	c := sharedContext(t)
	data, err := CollectElgg(c)
	if err != nil {
		t.Fatalf("CollectElgg: %v", err)
	}
	// The paper's Elgg test set is ~75% saturated.
	if f := data.SaturatedFraction(); f < 0.5 || f > 0.92 {
		t.Errorf("Elgg saturated fraction %.2f, want ~0.75", f)
	}
	table, err := Table5(c, data)
	if err != nil {
		t.Fatalf("Table5: %v", err)
	}
	if len(table.Rows) != 5 {
		t.Fatalf("Table 5 has %d rows, want 5", len(table.Rows))
	}
	// Shape: on the CPU-bound 3-tier app everything is accurate and
	// monitorless matches the optimally tuned CPU baseline (paper: 0.997
	// vs 0.999).
	byName := map[string]score.Confusion{}
	for _, r := range table.Rows {
		byName[strings.SplitN(r.Name, " ", 2)[0]] = r.Confusion
	}
	mon := byName["monitorless"]
	cpu := byName["CPU"]
	if mon.F1() < 0.9 {
		t.Errorf("monitorless F1₂ = %.3f, want ≈0.99 on Elgg", mon.F1())
	}
	if cpu.F1() < 0.9 {
		t.Errorf("CPU baseline F1₂ = %.3f, want ≈0.99 on Elgg", cpu.F1())
	}
	if mon.FN > 5 {
		t.Errorf("monitorless FN₂ = %d, want ~0 (the paper reports none)", mon.FN)
	}
}

func TestTeaStoreEvaluationShape(t *testing.T) {
	c := sharedContext(t)
	data, err := CollectTeaStore(c)
	if err != nil {
		t.Fatalf("CollectTeaStore: %v", err)
	}
	// Low saturation ratio (paper: 2.9%).
	if f := data.SaturatedFraction(); f < 0.005 || f > 0.12 {
		t.Errorf("TeaStore saturated fraction %.3f, want ~0.03", f)
	}
	table, perInst, err := Table6(c, data)
	if err != nil {
		t.Fatalf("Table6: %v", err)
	}
	var mem, or, and, mon, cpu score.Confusion
	for _, r := range table.Rows {
		switch {
		case strings.HasPrefix(r.Name, "MEM"):
			mem = r.Confusion
		case r.Name == "CPU-OR-MEM":
			or = r.Confusion
		case r.Name == "CPU-AND-MEM":
			and = r.Confusion
		case r.Name == "monitorless":
			mon = r.Confusion
		case strings.HasPrefix(r.Name, "CPU"):
			cpu = r.Confusion
		}
	}
	// Paper shapes: MEM and OR are useless (the static JVM heap fires the
	// rule constantly); AND and CPU are strong; monitorless is competitive
	// without any tuning and has the fewest false negatives.
	if mem.F1() > 0.4 || or.F1() > 0.4 {
		t.Errorf("MEM/OR F1₂ = %.3f/%.3f, want both near-useless as in the paper", mem.F1(), or.F1())
	}
	if and.F1() < cpu.F1()-0.05 {
		t.Errorf("CPU-AND-MEM (%.3f) should be at least on par with CPU (%.3f)", and.F1(), cpu.F1())
	}
	if mon.F1() < 0.35 {
		t.Errorf("monitorless F1₂ = %.3f, want competitive (~0.6-0.7)", mon.F1())
	}
	if mon.FN > and.FN {
		t.Errorf("monitorless FN₂ = %d should not exceed AND's %d (its design goal)", mon.FN, and.FN)
	}
	if mon.Accuracy() < 0.9 {
		t.Errorf("monitorless Acc₂ = %.3f, want > 0.9 (paper: 0.977)", mon.Accuracy())
	}

	// Figure 3 derives from the same run.
	fig := Figure3(data, perInst)
	if len(fig.Services) < 8 { // 7 TeaStore services + APP row
		t.Errorf("Figure 3 has %d rows, want 7 services + APP", len(fig.Services))
	}
	totalDots := 0
	for _, d := range fig.Dots {
		totalDots += len(d)
	}
	if totalDots == 0 {
		t.Error("Figure 3 has no markers at all")
	}
}

func TestSockshopEvaluationShape(t *testing.T) {
	c := sharedContext(t)
	data, err := CollectSockshop(c)
	if err != nil {
		t.Fatalf("CollectSockshop: %v", err)
	}
	// Paper: 10.1% saturated; our small scale lands nearby.
	if f := data.SaturatedFraction(); f < 0.04 || f > 0.30 {
		t.Errorf("Sockshop saturated fraction %.3f, want ~0.10-0.15", f)
	}
	table, err := Table8(c, data)
	if err != nil {
		t.Fatalf("Table8: %v", err)
	}
	var mem, or, and, mon score.Confusion
	for _, r := range table.Rows {
		switch {
		case strings.HasPrefix(r.Name, "MEM"):
			mem = r.Confusion
		case r.Name == "CPU-OR-MEM":
			or = r.Confusion
		case r.Name == "CPU-AND-MEM":
			and = r.Confusion
		case r.Name == "monitorless":
			mon = r.Confusion
		}
	}
	// Paper ordering: AND best; MEM and OR near-useless; monitorless in
	// the competitive middle with zero-ish FN₂.
	if and.F1() <= mon.F1() {
		t.Errorf("CPU-AND-MEM (%.3f) should beat monitorless (%.3f) on Sockshop, as in the paper", and.F1(), mon.F1())
	}
	if mem.F1() > 0.5 || or.F1() > 0.5 {
		t.Errorf("MEM/OR F1₂ = %.3f/%.3f, want near-useless", mem.F1(), or.F1())
	}
	if mon.F1() < 0.4 {
		t.Errorf("monitorless F1₂ = %.3f, want competitive (~0.6)", mon.F1())
	}
	if mon.FN > 10 {
		t.Errorf("monitorless FN₂ = %d, want near zero", mon.FN)
	}
}

func TestFigure3DotSemantics(t *testing.T) {
	data := &EvalData{
		ServiceOf: map[string]string{"a/x/0": "x"},
		Truth:     []int{0, 0, 1, 1, 0, 1},
		Loads:     []float64{1, 1, 1, 1, 1, 1},
		RTs:       []float64{1, 1, 1, 1, 1, 1},
		Times:     []int{0, 1, 2, 3, 4, 5},
		InstIDs:   []string{"a/x/0"},
	}
	perInst := map[string][]int{"a/x/0": {1, 1, 1, 0, 0, 0}}
	fig := Figure3(data, perInst)
	var tp, fp, fn int
	for _, dots := range fig.Dots {
		for _, d := range dots {
			switch d.Kind {
			case DotTP:
				tp++
			case DotFP:
				fp++
			case DotFN:
				fn++
			}
		}
	}
	// t0: pred 1, truth 0, no truth within 2 → wait, truth[2]=1 is within
	// k=2 of t0 → vindicated TP. t1: vindicated TP. t2: TP. t3: truth 1,
	// pred 0, but pred[1..2]=1 → forgiven (no FN). t5: truth 1, pred 0,
	// preds at 3,4 are 0 → FN.
	if tp != 3 {
		t.Errorf("TP dots = %d, want 3", tp)
	}
	if fp != 0 {
		t.Errorf("FP dots = %d, want 0", fp)
	}
	if fn != 1 {
		t.Errorf("FN dots = %d, want 1", fn)
	}
	if fig.Services[len(fig.Services)-1] != "APP" {
		t.Error("FN markers should sit on the APP row")
	}
}

func TestDotKindString(t *testing.T) {
	if DotTP.String() != "TP" || DotFP.String() != "FP" || DotFN.String() != "FN" {
		t.Error("DotKind strings wrong")
	}
}

func TestBaselineModeString(t *testing.T) {
	if BaselineCPU.String() != "CPU" || BaselineCPUAndMem.String() != "CPU-AND-MEM" {
		t.Error("BaselineMode strings wrong")
	}
	if !strings.Contains(BaselineMode(9).String(), "9") {
		t.Error("unknown mode string")
	}
}

func TestAlgorithmsCoverTable3(t *testing.T) {
	specs := Algorithms(Small())
	want := []string{"SVC", "Logistic Regression", "AdaBoost", "Neural Net", "XGBoost", "Random Forest"}
	if len(specs) != len(want) {
		t.Fatalf("got %d algorithms, want 6", len(specs))
	}
	for i, s := range specs {
		if s.Name != want[i] {
			t.Errorf("algorithm %d = %s, want %s", i, s.Name, want[i])
		}
		if len(s.Grid) == 0 {
			t.Errorf("%s has an empty grid", s.Name)
		}
		// Every algorithm must build from its chosen parameters.
		clf, err := s.Build(chosenParams(s.Name, Small()))
		if err != nil || clf == nil {
			t.Errorf("%s Build failed: %v", s.Name, err)
		}
	}
}

func TestTable4Importances(t *testing.T) {
	c := sharedContext(t)
	rows := Table4(c, 30)
	if len(rows) == 0 {
		t.Fatal("no importances")
	}
	if len(rows) > 30 {
		t.Errorf("Table 4 returned %d rows, want <= 30", len(rows))
	}
	// The paper's Table 4 is dominated by container-CPU-derived features;
	// at least a third of our top list should involve C-CPU.
	hits := 0
	for _, r := range rows {
		if strings.Contains(r.Name, "C-CPU") {
			hits++
		}
	}
	if hits < len(rows)/3 {
		t.Errorf("only %d/%d top features involve C-CPU (paper: nearly all)", hits, len(rows))
	}
}

func TestPrintersProduceOutput(t *testing.T) {
	c := sharedContext(t)
	var buf bytes.Buffer
	PrintTable1(&buf, Table1Summary(c))
	PrintTable4(&buf, Table4(c, 10))
	fig, err := Figure2(testScale())
	if err != nil {
		t.Fatal(err)
	}
	PrintFigure2(&buf, fig, false)
	if buf.Len() == 0 {
		t.Fatal("printers produced nothing")
	}
	for _, frag := range []string{"Table 1", "Table 4", "Figure 2", "knee"} {
		if !strings.Contains(buf.String(), frag) {
			t.Errorf("output missing %q", frag)
		}
	}
}

func TestScalePresets(t *testing.T) {
	s, f := Small(), Full()
	if s.TrainDuration >= f.TrainDuration {
		t.Error("small preset should be shorter than full")
	}
	if f.Trees != 250 || f.MinSamplesLeaf != 20 {
		t.Error("full preset must use the paper's forest (250 trees, 20/leaf)")
	}
	if f.SockshopScale != 1.0 {
		t.Error("full preset must use the paper's 6000-second Sockshop schedule")
	}
}

func TestEngineeredTrainingSubsampling(t *testing.T) {
	c := sharedContext(t)
	full, err := engineeredTrainingFrame(c, 0)
	if err != nil {
		t.Fatalf("engineeredTrainingFrame: %v", err)
	}
	if len(full.Labels()) != full.Rows() {
		t.Fatal("misaligned labels")
	}
	if full.Rows() != c.Report.Dataset.Frame().Rows() {
		t.Errorf("full pass returned %d rows for %d samples", full.Rows(), c.Report.Dataset.Frame().Rows())
	}
	sub, err := engineeredTrainingFrame(c, 500)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Rows() > 520 || sub.Rows() < 300 {
		t.Errorf("subsample size %d, want ≈500", sub.Rows())
	}
	if err := sub.Validate(); err != nil || len(sub.Labels()) != sub.Rows() {
		t.Fatalf("misaligned subsample: %v", err)
	}
	// Strided subsampling must retain samples from many runs (grouped CV
	// needs at least 5 groups).
	groups := map[int]bool{}
	for _, g := range sub.GroupIDs() {
		groups[g] = true
	}
	if len(groups) < 5 {
		t.Errorf("subsample covers %d runs, want >= 5", len(groups))
	}
}
