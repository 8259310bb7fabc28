package features

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"monitorless/internal/frame"
	"monitorless/internal/parallel"
	"monitorless/internal/pcp"
)

// framesEqualBits compares two dense frames bit-for-bit: schema names,
// dimensions and every cell's float64 bit pattern.
func framesEqualBits(t testing.TB, want, got *frame.Frame) {
	t.Helper()
	if got.NumCols() != want.NumCols() || got.Rows() != want.Rows() {
		t.Fatalf("shape mismatch: got %dx%d, want %dx%d",
			got.Rows(), got.NumCols(), want.Rows(), want.NumCols())
	}
	for j := 0; j < want.NumCols(); j++ {
		if got.Schema()[j].Name != want.Schema()[j].Name {
			t.Fatalf("col %d name %q, want %q", j, got.Schema()[j].Name, want.Schema()[j].Name)
		}
		wc, gc := want.Col(j), got.Col(j)
		for i := range wc {
			if math.Float64bits(wc[i]) != math.Float64bits(gc[i]) {
				t.Fatalf("col %d row %d: %x != %x (%v vs %v)",
					j, i, math.Float64bits(gc[i]), math.Float64bits(wc[i]), gc[i], wc[i])
			}
		}
	}
}

// buildFrame lays out per-run rows as a frame whose span IDs count from 1,
// labeled with the per-run labels, or unlabeled when labels is nil.
func buildFrame(cols []Column, runs [][][]float64, labels [][]int) *frame.Frame {
	var spans []frame.Span
	var lab []int
	n := 0
	for r, rows := range runs {
		if len(rows) == 0 {
			continue
		}
		spans = append(spans, frame.Span{ID: r + 1, Start: n, End: n + len(rows)})
		n += len(rows)
		if labels != nil {
			lab = append(lab, labels[r][:len(rows)]...)
		}
	}
	fr := frame.NewDense(cols, n, spans, lab)
	i := 0
	for _, rows := range runs {
		for _, row := range rows {
			for j, v := range row {
				fr.Col(j)[i] = v
			}
			i++
		}
	}
	return fr
}

// synthFrame builds a frame with a clear signal: column 0 ("C-CPU-U",
// utilization) drives the label; column 1 is log-scaled bytes; column 2 is
// pure noise; column 3 is a constant.
func synthFrame(runs, rowsPerRun int, seed int64) *frame.Frame {
	r := rand.New(rand.NewSource(seed))
	cols := []Column{
		{Name: "C-CPU-U", Domain: "cpu", Util: true},
		{Name: "disk.bytes", Domain: "disk", Log: true},
		{Name: "noise.metric", Domain: "other"},
		{Name: "constant.metric", Domain: "other"},
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
			rows[g] = append(rows[g], []float64{util, 1e6 * r.Float64(), r.NormFloat64(), 7})
			labels[g] = append(labels[g], lbl)
		}
	}
	return buildFrame(cols, rows, labels)
}

func colIndex(fr *frame.Frame, name string) int {
	for i, c := range fr.Schema() {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// fitTransform fits s on fr and returns the frame the offline driver
// makes of fr through it.
func fitTransform(s Step, fr *frame.Frame) (*frame.Frame, error) {
	if err := s.Fit(fr); err != nil {
		return nil, err
	}
	return applyChain([]Step{s}, fr)
}

func TestExpandAddsLevelBits(t *testing.T) {
	fr := synthFrame(2, 50, 1)
	out, err := fitTransform(&Expand{}, fr)
	if err != nil {
		t.Fatal(err)
	}
	// C-CPU-U is a CPU util: 5 level bits appended.
	if out.NumCols() != fr.NumCols()+5 {
		t.Fatalf("expanded to %d cols, want %d", out.NumCols(), fr.NumCols()+5)
	}
	for _, name := range []string{"C-CPU-LOW", "C-CPU-MEDIUM", "C-CPU-HIGH", "C-CPU-VERYHIGH", "C-CPU-EXTREME"} {
		if colIndex(out, name) < 0 {
			t.Errorf("missing level bit %s", name)
		}
	}
	// Bit semantics on a specific value.
	utilIdx := colIndex(out, "C-CPU-U")
	lowIdx := colIndex(out, "C-CPU-LOW")
	highIdx := colIndex(out, "C-CPU-HIGH")
	veryIdx := colIndex(out, "C-CPU-VERYHIGH")
	for i := 0; i < out.Rows(); i++ {
		u := out.Col(utilIdx)[i]
		if (u < 50) != (out.Col(lowIdx)[i] == 1) {
			t.Fatal("LOW bit wrong")
		}
		if (u > 80) != (out.Col(highIdx)[i] == 1) {
			t.Fatal("HIGH bit wrong")
		}
		if (u > 90) != (out.Col(veryIdx)[i] == 1) {
			t.Fatal("VERYHIGH bit wrong")
		}
	}
}

func TestExpandSixteenBitsOnFullCatalog(t *testing.T) {
	// On the real catalog (host+container CPU and MEM utils) the paper's
	// 16 binary features appear: 2×5 CPU bits + 2×3 MEM bits.
	cat := pcp.DefaultCatalog()
	fr := frame.NewDense(pcp.SchemaFromDefs(cat.CombinedDefs()), 1, []frame.Span{{ID: 1, End: 1}}, []int{0})
	out, err := fitTransform(&Expand{}, fr)
	if err != nil {
		t.Fatal(err)
	}
	added := out.NumCols() - fr.NumCols()
	if added != 16 {
		t.Errorf("added %d binary features, want the paper's 16", added)
	}
}

func TestExpandLogScaling(t *testing.T) {
	fr := synthFrame(1, 10, 2)
	out, err := fitTransform(&Expand{}, fr)
	if err != nil {
		t.Fatal(err)
	}
	got := out.Col(colIndex(out, "disk.bytes"))
	for j, v := range fr.Col(1) {
		if want := math.Log10(1 + v); math.Abs(got[j]-want) > 1e-9 {
			t.Fatalf("log scaling wrong: %v vs %v", got[j], want)
		}
	}
}

func TestStandardScale(t *testing.T) {
	out, err := fitTransform(&StandardScale{}, synthFrame(2, 200, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Column 0 must have ~0 mean, ~1 std; constant column must be 0.
	var sum, sq float64
	for i, v := range out.Col(0) {
		sum += v
		sq += v * v
		if out.Col(3)[i] != 0 {
			t.Fatal("constant column must scale to 0")
		}
	}
	n := out.Rows()
	mean := sum / float64(n)
	std := math.Sqrt(sq/float64(n) - mean*mean)
	if math.Abs(mean) > 1e-9 || math.Abs(std-1) > 1e-9 {
		t.Errorf("standardized mean=%v std=%v", mean, std)
	}
}

func TestRFFilterKeepsSignal(t *testing.T) {
	fr := synthFrame(4, 150, 4)
	f := &RFFilter{TopK: 2, Trees: 10, Seed: 4}
	out, err := fitTransform(f, fr)
	if err != nil {
		t.Fatal(err)
	}
	if colIndex(out, "C-CPU-U") < 0 {
		t.Errorf("filter dropped the signal feature; kept %v", f.KeepNames)
	}
	if out.NumCols() >= fr.NumCols() {
		t.Errorf("filter kept everything (%d cols)", out.NumCols())
	}
}

// The per-run forests fit side by side; Keep must not depend on how many
// run at once. Each of the six runs carries its signal in a different
// column band (so the union is wider than any one run's top-K), and one
// run is single-class (skipped).
func TestRFFilterKeepWorkerInvariant(t *testing.T) {
	defer parallel.SetDefaultWorkers(0)
	const runs, rowsPerRun, d = 6, 120, 48
	r := rand.New(rand.NewSource(21))
	cols := make([]Column, d)
	for j := range cols {
		cols[j] = Column{Name: fmt.Sprintf("m%02d", j), Domain: "other"}
	}
	rows := make([][][]float64, runs)
	labels := make([][]int, runs)
	for g := range rows {
		for i := 0; i < rowsPerRun; i++ {
			row := make([]float64, d)
			for j := range row {
				row[j] = r.NormFloat64()
			}
			lbl := 0
			if g < runs-1 && row[7*g]+0.5*row[7*g+3]+0.3*r.NormFloat64() > 0.4 {
				lbl = 1
			}
			rows[g] = append(rows[g], row)
			labels[g] = append(labels[g], lbl)
		}
	}
	fr := buildFrame(cols, rows, labels)

	var want []int
	for _, workers := range []int{1, 4, 8} {
		parallel.SetDefaultWorkers(workers)
		f := &RFFilter{TopK: 4, Trees: 6, Seed: 9}
		if err := f.Fit(fr); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = f.Keep
			if len(want) <= 4 {
				t.Fatalf("Keep %v is no wider than one run's top-K; the corpus no longer exercises the union", want)
			}
			continue
		}
		if !slices.Equal(f.Keep, want) {
			t.Fatalf("workers %d: Keep %v, workers 1: %v", workers, f.Keep, want)
		}
	}
}

func TestRFFilterNoLabeledRuns(t *testing.T) {
	fr := synthFrame(1, 20, 5)
	labels := fr.Labels()
	for i := range labels {
		labels[i] = 0 // single class
	}
	f := &RFFilter{TopK: 2}
	if err := f.Fit(fr); err == nil {
		t.Error("expected error when no mixed-class run exists")
	}
}

func TestPCAReduceStep(t *testing.T) {
	out, err := fitTransform(&PCAReduce{MaxComponents: 2, VarianceTarget: 0.9999}, synthFrame(2, 100, 6))
	if err != nil {
		t.Fatal(err)
	}
	// The disk.bytes column dominates total variance, so the 99.99%
	// target is met with a single component (capped at 2 either way).
	if out.NumCols() < 1 || out.NumCols() > 2 {
		t.Fatalf("PCA kept %d cols, want 1-2", out.NumCols())
	}
	if out.Schema()[0].Name != "PC01" {
		t.Errorf("PCA column name %q", out.Schema()[0].Name)
	}
	// Labels must survive.
	if out.Labels() == nil {
		t.Error("labels lost through PCA")
	}
}

func TestTimeFeaturesValues(t *testing.T) {
	fr := buildFrame([]Column{{Name: "m", Domain: "cpu"}},
		[][][]float64{{{1}, {2}, {3}, {4}, {5}, {6}}}, nil)
	out, err := fitTransform(&TimeFeatures{AvgWindows: []int{1}, LagWindows: []int{2}}, fr)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumCols() != 3 {
		t.Fatalf("got %d cols, want 3 (m, m-AVG1, m-LAGGED2)", out.NumCols())
	}
	avgIdx := colIndex(out, "m-AVG1")
	lagIdx := colIndex(out, "m-LAGGED2")
	// AVG1 at t=3: mean(3,4) = 3.5. LAGGED2 at t=3: value at t=1 → 2.
	if v := out.Col(avgIdx)[3]; v != 3.5 {
		t.Errorf("AVG1[3] = %v, want 3.5", v)
	}
	if v := out.Col(lagIdx)[3]; v != 2 {
		t.Errorf("LAGGED2[3] = %v, want 2", v)
	}
	// Early rows: truncated average, clamped lag.
	if out.Col(avgIdx)[0] != 1 || out.Col(lagIdx)[0] != 1 {
		t.Errorf("row 0 time features = %v/%v, want 1/1", out.Col(avgIdx)[0], out.Col(lagIdx)[0])
	}
	// Time-derived columns are marked.
	if cols := out.Schema(); !cols[avgIdx].TimeDerived || !cols[lagIdx].TimeDerived {
		t.Error("time-derived flags missing")
	}
}

func TestTimeFeaturesRunBoundary(t *testing.T) {
	fr := buildFrame([]Column{{Name: "m", Domain: "cpu"}},
		[][][]float64{{{10}, {10}}, {{99}, {99}}}, nil)
	out, err := fitTransform(&TimeFeatures{AvgWindows: []int{1}, LagWindows: []int{1}}, fr)
	if err != nil {
		t.Fatal(err)
	}
	// Run 2's first row must not see run 1's history.
	if v := out.Col(colIndex(out, "m-LAGGED1"))[out.Spans()[1].Start]; v != 99 {
		t.Errorf("lag leaked across runs: %v", v)
	}
}

func TestProductsEligibility(t *testing.T) {
	cols := []Column{
		{Name: "cpu.a", Domain: "cpu"},
		{Name: "cpu.b", Domain: "cpu"},
		{Name: "mem.a", Domain: "mem"},
		{Name: "C-CPU-HIGH", Domain: "cpu", Binary: true},
		{Name: "C-CPU-U", Domain: "cpu", Util: true},
		{Name: "S-MEM-U", Domain: "mem", Util: true},
		{Name: "old-AVG1", Domain: "cpu", TimeDerived: true},
	}
	out, err := fitTransform(&Products{}, buildFrame(cols, [][][]float64{{{2, 3, 5, 1, 90, 40, 9}}}, nil))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, c := range out.Schema() {
		names[c.Name] = true
	}
	// Unbounded metrics never join products (scale-dependent products do
	// not transfer across services with different throughput scales).
	if names["cpu.a × mem.a"] || names["cpu.a × cpu.b"] ||
		names["cpu.a × C-CPU-HIGH"] || names["cpu.a × C-CPU-U"] {
		t.Error("products with unbounded members should be excluded")
	}
	// Bounded pairs (binary × binary, binary × util, util × util) join,
	// including the binary square.
	if !names["C-CPU-HIGH × C-CPU-U"] || !names["C-CPU-HIGH × S-MEM-U"] {
		t.Error("missing binary × util products")
	}
	if !names["C-CPU-HIGH × C-CPU-HIGH"] {
		t.Error("missing binary square (Table 4 has C-CPU-VERYHIGH × C-CPU-VERYHIGH)")
	}
	if !names["C-CPU-U × S-MEM-U"] {
		t.Error("missing util×util product")
	}
	// Util self-squares are monotone transforms of the original: excluded.
	if names["C-CPU-U × C-CPU-U"] {
		t.Error("util self-square should be excluded")
	}
	// Time-derived columns are excluded entirely.
	for n := range names {
		if n == "old-AVG1 × mem.a" || n == "cpu.a × old-AVG1" {
			t.Error("time-derived columns must not join products")
		}
	}
	// Product values are actual products.
	if v := out.Col(colIndex(out, "C-CPU-U × S-MEM-U"))[0]; v != 3600 {
		t.Errorf("product value %v, want 3600", v)
	}
}

func TestDropZeroVariance(t *testing.T) {
	out, err := fitTransform(&DropZeroVariance{}, synthFrame(1, 50, 7))
	if err != nil {
		t.Fatal(err)
	}
	if colIndex(out, "constant.metric") >= 0 {
		t.Error("constant column survived")
	}
	if colIndex(out, "C-CPU-U") < 0 {
		t.Error("varying column dropped")
	}
}

// TestKeepStepsCopyColumns: the column-keeping steps (RFFilter,
// DropZeroVariance) copy what they keep into the output frame, in Keep
// order, so mutating the output must not leak into the input.
func TestKeepStepsCopyColumns(t *testing.T) {
	in := synthFrame(1, 8, 3)
	keep := []int{2, 0}
	for _, step := range []Step{&RFFilter{Keep: keep}, &DropZeroVariance{Keep: keep}} {
		out, err := applyChain([]Step{step}, in)
		if err != nil {
			t.Fatalf("%s: %v", step.Name(), err)
		}
		if out.Schema()[0] != in.Schema()[2] || out.Schema()[1] != in.Schema()[0] {
			t.Fatalf("%s: kept schema wrong", step.Name())
		}
		before := in.Col(2)[3]
		out.Col(0)[3] = before + 99
		if in.Col(2)[3] != before {
			t.Fatalf("%s: output aliases the input; it must copy", step.Name())
		}
		if out.Col(1)[5] != in.Col(0)[5] {
			t.Fatalf("%s: kept values wrong", step.Name())
		}
	}
}

// TestKeepStepsRowRangeView: on a RowRange view inside a larger frame the
// keep steps' copy holds exactly the view's rows — correct values,
// len == cap == view rows per column — and spans that tile it.
func TestKeepStepsRowRangeView(t *testing.T) {
	parent := synthFrame(3, 70, 8)
	lo, hi := 37, 141
	v := parent.RowRange(lo, hi)
	keep := []int{3, 1}
	for _, step := range []Step{&RFFilter{Keep: keep}, &DropZeroVariance{Keep: keep}} {
		out, err := applyChain([]Step{step}, v)
		if err != nil {
			t.Fatalf("%s: %v", step.Name(), err)
		}
		if out.Rows() != hi-lo || !slices.Equal(out.Spans(), v.Spans()) {
			t.Fatalf("%s: %d rows, spans %v; want %d rows, spans %v", step.Name(), out.Rows(), out.Spans(), hi-lo, v.Spans())
		}
		for p, src := range keep {
			if out.Schema()[p] != v.Schema()[src] {
				t.Fatalf("%s: column %d is %q, want %q", step.Name(), p, out.Schema()[p].Name, v.Schema()[src].Name)
			}
			col := out.Col(p)
			if len(col) != hi-lo || cap(col) != hi-lo {
				t.Fatalf("%s: column %d: len %d cap %d, want both %d", step.Name(), p, len(col), cap(col), hi-lo)
			}
			for i := range col {
				if col[i] != parent.Col(src)[lo+i] {
					t.Fatalf("%s: cell (%d,%d) = %v, want %v", step.Name(), i, p, col[i], parent.Col(src)[lo+i])
				}
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := Config{Products: true, Reduce1: ReduceNone}
	if bad.Validate() == nil {
		t.Error("products without first reduction must be rejected")
	}
	worse := Config{Reduce1: "bogus"}
	if worse.Validate() == nil {
		t.Error("unknown reduction must be rejected")
	}
	if (DefaultConfig()).Validate() != nil {
		t.Error("default config must validate")
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	fr := synthFrame(4, 120, 10)
	p, err := NewPipeline(Config{
		Normalize:    true,
		Reduce1:      ReduceFilter,
		TimeFeatures: true,
		Products:     true,
		Reduce2:      ReduceFilter,
		FilterTopK:   3,
		FilterTrees:  8,
		Seed:         10,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.FitFrame(fr)
	if err != nil {
		t.Fatalf("FitFrame: %v", err)
	}
	if out.Rows() != fr.Rows() {
		t.Errorf("row count changed: %d vs %d", out.Rows(), fr.Rows())
	}
	if p.NumOutputs() == 0 {
		t.Fatal("no output features")
	}
	// TransformFrame must reproduce the fit-time output.
	again, err := p.TransformFrame(fr)
	if err != nil {
		t.Fatalf("TransformFrame: %v", err)
	}
	framesEqualBits(t, out, again)
}

func TestPipelineGobRoundTrip(t *testing.T) {
	fr := synthFrame(3, 60, 12)
	p, err := NewPipeline(DefaultConfigWith(3, 8, 12))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.FitFrame(fr); err != nil {
		t.Fatal(err)
	}
	blob, err := p.EncodeGob()
	if err != nil {
		t.Fatalf("EncodeGob: %v", err)
	}
	back, err := DecodePipeline(blob)
	if err != nil {
		t.Fatalf("DecodePipeline: %v", err)
	}
	a, err := p.TransformFrame(fr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.TransformFrame(fr)
	if err != nil {
		t.Fatalf("decoded TransformFrame: %v", err)
	}
	framesEqualBits(t, a, b)
}

func TestPipelineUnfitted(t *testing.T) {
	p, err := NewPipeline(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TransformFrame(synthFrame(1, 10, 13)); err == nil {
		t.Error("unfitted TransformFrame must fail")
	}
}

// DefaultConfigWith is a test helper building a small filter pipeline.
func DefaultConfigWith(topK, trees int, seed int64) Config {
	return Config{
		Normalize:    true,
		Reduce1:      ReduceFilter,
		TimeFeatures: true,
		Products:     true,
		Reduce2:      ReduceFilter,
		FilterTopK:   topK,
		FilterTrees:  trees,
		Seed:         seed,
	}
}

// The FitFrame ledger names every step once, in order, with its input
// width, and leaves nothing out: the rows add up to the call's wall-clock
// time. A decoded pipeline has no ledger and the same bytes as before.
func TestFitReportAddsUpToFitFrame(t *testing.T) {
	fr := synthFrame(8, 400, 3)
	p, err := NewPipeline(DefaultConfigWith(8, 10, 42))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := p.FitFrame(fr); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start).Seconds()
	rep := p.FitReport()
	if len(rep) != len(p.Steps) {
		t.Fatalf("%d report rows for %d steps", len(rep), len(p.Steps))
	}
	sum, width := 0.0, fr.NumCols()
	for i, r := range rep {
		if r.Step != p.Steps[i].Name() {
			t.Errorf("row %d is %q, step is %q", i, r.Step, p.Steps[i].Name())
		}
		if i == 0 && r.InCols != width {
			t.Errorf("first row reads %d columns, the frame has %d", r.InCols, width)
		}
		sum += r.FitSeconds + r.TransformSeconds
	}
	if sum > wall || sum < 0.95*wall {
		t.Errorf("rows sum to %.4fs, FitFrame took %.4fs", sum, wall)
	}

	blob, err := p.EncodeGob()
	if err != nil {
		t.Fatal(err)
	}
	q, err := DecodePipeline(blob)
	if err != nil {
		t.Fatal(err)
	}
	if q.FitReport() != nil {
		t.Error("a decoded pipeline carries a fit report")
	}
}
