package features

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"monitorless/internal/dataset"
	"monitorless/internal/frame"
	"monitorless/internal/pcp"
)

// synthTable builds a table with a clear signal: column 0 ("C-CPU-U",
// utilization) drives the label; column 1 is log-scaled bytes; column 2 is
// pure noise; column 3 is a constant.
func synthTable(runs, rowsPerRun int, seed int64) *Table {
	r := rand.New(rand.NewSource(seed))
	cols := []Column{
		{Name: "C-CPU-U", Domain: "cpu", Util: true},
		{Name: "disk.bytes", Domain: "disk", Log: true},
		{Name: "noise.metric", Domain: "other"},
		{Name: "constant.metric", Domain: "other"},
	}
	t := &Table{Cols: cols}
	for g := 0; g < runs; g++ {
		run := Run{ID: g + 1}
		for i := 0; i < rowsPerRun; i++ {
			util := 100 * r.Float64()
			lbl := 0
			if util > 85 {
				lbl = 1
			}
			run.Rows = append(run.Rows, []float64{util, 1e6 * r.Float64(), r.NormFloat64(), 7})
			run.Labels = append(run.Labels, lbl)
		}
		t.Runs = append(t.Runs, run)
	}
	return t
}

func colIndex(t *Table, name string) int {
	for i, c := range t.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// fitStep and transformStep adapt the frame-based Step interface to the
// row-oriented tables these tests construct.
func fitStep(s Step, tab *Table) error {
	return s.Fit(tab.Frame())
}

func transformStep(s Step, tab *Table) (*Table, error) {
	out, err := s.Transform(tab.Frame())
	if err != nil {
		return nil, err
	}
	return FromFrame(out), nil
}

func TestExpandAddsLevelBits(t *testing.T) {
	tab := synthTable(2, 50, 1)
	e := &Expand{}
	if err := fitStep(e, tab); err != nil {
		t.Fatal(err)
	}
	out, err := transformStep(e, tab)
	if err != nil {
		t.Fatal(err)
	}
	// C-CPU-U is a CPU util: 5 level bits appended.
	if out.NumCols() != tab.NumCols()+5 {
		t.Fatalf("expanded to %d cols, want %d", out.NumCols(), tab.NumCols()+5)
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
	for ri := range out.Runs {
		for _, row := range out.Runs[ri].Rows {
			u := row[utilIdx]
			if (u < 50) != (row[lowIdx] == 1) {
				t.Fatal("LOW bit wrong")
			}
			if (u > 80) != (row[highIdx] == 1) {
				t.Fatal("HIGH bit wrong")
			}
			if (u > 90) != (row[veryIdx] == 1) {
				t.Fatal("VERYHIGH bit wrong")
			}
		}
	}
}

func TestExpandSixteenBitsOnFullCatalog(t *testing.T) {
	// On the real catalog (host+container CPU and MEM utils) the paper's
	// 16 binary features appear: 2×5 CPU bits + 2×3 MEM bits.
	cat := pcp.DefaultCatalog()
	ds := &dataset.Dataset{Defs: cat.CombinedDefs()}
	ds.Samples = append(ds.Samples, dataset.Sample{RunID: 1, Values: make([]float64, len(ds.Defs))})
	tab := FromDataset(ds)
	e := &Expand{}
	if err := fitStep(e, tab); err != nil {
		t.Fatal(err)
	}
	out, err := transformStep(e, tab)
	if err != nil {
		t.Fatal(err)
	}
	added := out.NumCols() - tab.NumCols()
	if added != 16 {
		t.Errorf("added %d binary features, want the paper's 16", added)
	}
}

func TestExpandLogScaling(t *testing.T) {
	tab := synthTable(1, 10, 2)
	e := &Expand{}
	if err := fitStep(e, tab); err != nil {
		t.Fatal(err)
	}
	out, err := transformStep(e, tab)
	if err != nil {
		t.Fatal(err)
	}
	idx := colIndex(out, "disk.bytes")
	for j, row := range out.Runs[0].Rows {
		want := math.Log10(1 + tab.Runs[0].Rows[j][1])
		if math.Abs(row[idx]-want) > 1e-9 {
			t.Fatalf("log scaling wrong: %v vs %v", row[idx], want)
		}
	}
}

func TestStandardScale(t *testing.T) {
	tab := synthTable(2, 200, 3)
	s := &StandardScale{}
	if err := fitStep(s, tab); err != nil {
		t.Fatal(err)
	}
	out, err := transformStep(s, tab)
	if err != nil {
		t.Fatal(err)
	}
	// Column 0 must have ~0 mean, ~1 std; constant column must be 0.
	var sum, sq float64
	n := 0
	for ri := range out.Runs {
		for _, row := range out.Runs[ri].Rows {
			sum += row[0]
			sq += row[0] * row[0]
			if row[3] != 0 {
				t.Fatal("constant column must scale to 0")
			}
			n++
		}
	}
	mean := sum / float64(n)
	std := math.Sqrt(sq/float64(n) - mean*mean)
	if math.Abs(mean) > 1e-9 || math.Abs(std-1) > 1e-9 {
		t.Errorf("standardized mean=%v std=%v", mean, std)
	}
}

func TestRFFilterKeepsSignal(t *testing.T) {
	tab := synthTable(4, 150, 4)
	f := &RFFilter{TopK: 2, Trees: 10, Seed: 4}
	if err := fitStep(f, tab); err != nil {
		t.Fatal(err)
	}
	out, err := transformStep(f, tab)
	if err != nil {
		t.Fatal(err)
	}
	if colIndex(out, "C-CPU-U") < 0 {
		t.Errorf("filter dropped the signal feature; kept %v", f.KeepNames)
	}
	if out.NumCols() >= tab.NumCols() {
		t.Errorf("filter kept everything (%d cols)", out.NumCols())
	}
}

func TestRFFilterNoLabeledRuns(t *testing.T) {
	tab := synthTable(1, 20, 5)
	for i := range tab.Runs[0].Labels {
		tab.Runs[0].Labels[i] = 0 // single class
	}
	f := &RFFilter{TopK: 2}
	if err := fitStep(f, tab); err == nil {
		t.Error("expected error when no mixed-class run exists")
	}
}

func TestPCAReduceStep(t *testing.T) {
	tab := synthTable(2, 100, 6)
	p := &PCAReduce{MaxComponents: 2, VarianceTarget: 0.9999}
	if err := fitStep(p, tab); err != nil {
		t.Fatal(err)
	}
	out, err := transformStep(p, tab)
	if err != nil {
		t.Fatal(err)
	}
	// The disk.bytes column dominates total variance, so the 99.99%
	// target is met with a single component (capped at 2 either way).
	if out.NumCols() < 1 || out.NumCols() > 2 {
		t.Fatalf("PCA kept %d cols, want 1-2", out.NumCols())
	}
	if out.Cols[0].Name != "PC01" {
		t.Errorf("PCA column name %q", out.Cols[0].Name)
	}
	// Labels must survive.
	if out.Runs[0].Labels == nil {
		t.Error("labels lost through PCA")
	}
}

func TestTimeFeaturesValues(t *testing.T) {
	cols := []Column{{Name: "m", Domain: "cpu"}}
	tab := &Table{
		Cols: cols,
		Runs: []Run{{ID: 1, Rows: [][]float64{{1}, {2}, {3}, {4}, {5}, {6}}}},
	}
	tf := &TimeFeatures{AvgWindows: []int{1}, LagWindows: []int{2}}
	if err := fitStep(tf, tab); err != nil {
		t.Fatal(err)
	}
	out, err := transformStep(tf, tab)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumCols() != 3 {
		t.Fatalf("got %d cols, want 3 (m, m-AVG1, m-LAGGED2)", out.NumCols())
	}
	avgIdx := colIndex(out, "m-AVG1")
	lagIdx := colIndex(out, "m-LAGGED2")
	rows := out.Runs[0].Rows
	// AVG1 at t=3: mean(3,4) = 3.5. LAGGED2 at t=3: value at t=1 → 2.
	if rows[3][avgIdx] != 3.5 {
		t.Errorf("AVG1[3] = %v, want 3.5", rows[3][avgIdx])
	}
	if rows[3][lagIdx] != 2 {
		t.Errorf("LAGGED2[3] = %v, want 2", rows[3][lagIdx])
	}
	// Early rows: truncated average, clamped lag.
	if rows[0][avgIdx] != 1 || rows[0][lagIdx] != 1 {
		t.Errorf("row 0 time features = %v/%v, want 1/1", rows[0][avgIdx], rows[0][lagIdx])
	}
	// Time-derived columns are marked.
	if !out.Cols[avgIdx].TimeDerived || !out.Cols[lagIdx].TimeDerived {
		t.Error("time-derived flags missing")
	}
}

func TestTimeFeaturesRunBoundary(t *testing.T) {
	cols := []Column{{Name: "m", Domain: "cpu"}}
	tab := &Table{
		Cols: cols,
		Runs: []Run{
			{ID: 1, Rows: [][]float64{{10}, {10}}},
			{ID: 2, Rows: [][]float64{{99}, {99}}},
		},
	}
	tf := &TimeFeatures{AvgWindows: []int{1}, LagWindows: []int{1}}
	if err := fitStep(tf, tab); err != nil {
		t.Fatal(err)
	}
	out, err := transformStep(tf, tab)
	if err != nil {
		t.Fatal(err)
	}
	// Run 2's first row must not see run 1's history.
	lagIdx := colIndex(out, "m-LAGGED1")
	if out.Runs[1].Rows[0][lagIdx] != 99 {
		t.Errorf("lag leaked across runs: %v", out.Runs[1].Rows[0][lagIdx])
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
	tab := &Table{Cols: cols, Runs: []Run{{ID: 1, Rows: [][]float64{{2, 3, 5, 1, 90, 40, 9}}}}}
	p := &Products{}
	if err := fitStep(p, tab); err != nil {
		t.Fatal(err)
	}
	out, err := transformStep(p, tab)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, c := range out.Cols {
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
	row := out.Runs[0].Rows[0]
	idx := colIndex(out, "C-CPU-U × S-MEM-U")
	if row[idx] != 3600 {
		t.Errorf("product value %v, want 3600", row[idx])
	}
}

func TestDropZeroVariance(t *testing.T) {
	tab := synthTable(1, 50, 7)
	z := &DropZeroVariance{}
	if err := fitStep(z, tab); err != nil {
		t.Fatal(err)
	}
	out, err := transformStep(z, tab)
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

func TestMinMaxAndCoverage(t *testing.T) {
	train := synthTable(2, 100, 8)
	s, err := FitMinMax(train)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := s.Transform(train)
	if err != nil {
		t.Fatal(err)
	}
	for ri := range scaled.Runs {
		for _, row := range scaled.Runs[ri].Rows {
			for i, v := range row {
				if v < -1e-9 || v > 1+1e-9 {
					t.Fatalf("training value %v outside [0,1] at col %d", v, i)
				}
			}
		}
	}
	// Validation data with an out-of-range feature triggers the §3.2.3
	// coverage alarm.
	val := synthTable(1, 10, 9)
	val.Runs[0].Rows[0][1] = 1e9 // outside trained byte range
	gaps, err := s.CoverageGaps(val)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, g := range gaps {
		if g == "disk.bytes" {
			found = true
		}
	}
	if !found {
		t.Errorf("coverage gaps %v missing disk.bytes", gaps)
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

func TestGridConfigs(t *testing.T) {
	cfgs := GridConfigs()
	if len(cfgs) != 60 {
		t.Errorf("grid has %d configs, want 60 (72 minus 12 unfeasible)", len(cfgs))
	}
	for _, c := range cfgs {
		if c.Validate() != nil {
			t.Errorf("grid contains invalid config %+v", c)
		}
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	tab := synthTable(4, 120, 10)
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
	out, err := p.Fit(tab)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if out.NumRows() != tab.NumRows() {
		t.Errorf("row count changed: %d vs %d", out.NumRows(), tab.NumRows())
	}
	if p.NumOutputs() == 0 {
		t.Fatal("no output features")
	}
	// Transform must reproduce the fit-time output.
	again, err := p.Transform(tab)
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	for ri := range out.Runs {
		for j := range out.Runs[ri].Rows {
			for k := range out.Runs[ri].Rows[j] {
				if out.Runs[ri].Rows[j][k] != again.Runs[ri].Rows[j][k] {
					t.Fatal("Transform does not reproduce Fit output")
				}
			}
		}
	}
}

func TestPipelineGobRoundTrip(t *testing.T) {
	tab := synthTable(3, 60, 12)
	p, err := NewPipeline(DefaultConfigWith(3, 8, 12))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Fit(tab); err != nil {
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
	a, err := p.Transform(tab)
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Transform(tab)
	if err != nil {
		t.Fatalf("decoded Transform: %v", err)
	}
	for ri := range a.Runs {
		for j := range a.Runs[ri].Rows {
			for k := range a.Runs[ri].Rows[j] {
				if a.Runs[ri].Rows[j][k] != b.Runs[ri].Rows[j][k] {
					t.Fatal("decoded pipeline disagrees with original")
				}
			}
		}
	}
}

func TestPipelineUnfitted(t *testing.T) {
	p, err := NewPipeline(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Transform(synthTable(1, 10, 13)); err == nil {
		t.Error("unfitted Transform must fail")
	}
}

func TestFromDataset(t *testing.T) {
	cat := pcp.DefaultCatalog()
	ds := &dataset.Dataset{Defs: cat.CombinedDefs()}
	for run := 1; run <= 2; run++ {
		for tt := 0; tt < 3; tt++ {
			ds.Samples = append(ds.Samples, dataset.Sample{
				RunID:  run,
				T:      tt,
				Label:  tt % 2,
				Values: make([]float64, len(ds.Defs)),
			})
		}
	}
	tab := FromDataset(ds)
	if len(tab.Runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(tab.Runs))
	}
	if tab.NumRows() != 6 {
		t.Errorf("got %d rows, want 6", tab.NumRows())
	}
	x, y, groups := tab.Flatten()
	if len(x) != 6 || len(y) != 6 || len(groups) != 6 {
		t.Error("Flatten lengths wrong")
	}
	// Utilization metadata must carry over.
	if i := colIndex(tab, "C-CPU-U"); i < 0 || !tab.Cols[i].Util {
		t.Error("C-CPU-U util flag missing")
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
	fr := synthTable(8, 400, 3).Frame()
	for _, chunked := range []bool{false, true} {
		in := fr
		if chunked {
			var err error
			if in, err = frame.Rechunk(fr, 256, ""); err != nil {
				t.Fatal(err)
			}
		}
		p, err := NewPipeline(DefaultConfigWith(8, 10, 42))
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := p.FitFrame(in); err != nil {
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
			t.Errorf("chunked=%v: rows sum to %.4fs, FitFrame took %.4fs", chunked, sum, wall)
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
}
