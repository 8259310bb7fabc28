package dataset

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"monitorless/internal/apps"
	"monitorless/internal/cluster"
	"monitorless/internal/frame"
	"monitorless/internal/pcp"
	"monitorless/internal/workload"
)

// tinyCSV holds two runs whose rows interleave, the way older writers
// emitted a parallel pair tick by tick.
const tinyCSV = `runid,t,label,kpi,a,b
1,0,0,12.5,1.5,2
2,0,0,7,5,6.25
1,1,1,900,3,4
`

func tinyDataset(t *testing.T) *Dataset {
	t.Helper()
	d, err := ReadCSV(strings.NewReader(tinyCSV), nil)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	return d
}

func TestDatasetAccessors(t *testing.T) {
	d := tinyDataset(t)
	if got := d.Names(); got[0] != "a" || got[1] != "b" {
		t.Errorf("Names = %v", got)
	}
	if f := d.SaturatedFraction(); math.Abs(f-1.0/3.0) > 1e-12 {
		t.Errorf("SaturatedFraction = %v", f)
	}
	if ids := d.RunIDs(); len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Errorf("RunIDs = %v", ids)
	}
	if (&Dataset{}).SaturatedFraction() != 0 {
		t.Error("empty dataset fraction should be 0")
	}
	if d.Frame() != d.Frame() {
		t.Error("Frame must return the stored frame, not a copy")
	}
}

// TestReadCSVGroupsRuns checks that interleaved rows are regrouped by run
// in first-appearance order, file order kept within each run, with T and
// KPI following their rows.
func TestReadCSVGroupsRuns(t *testing.T) {
	d := tinyDataset(t)
	fr := d.Frame()
	if len(fr.Labels()) != fr.Rows() {
		t.Fatalf("%d labels for %d rows", len(fr.Labels()), fr.Rows())
	}
	want := []frame.Span{{ID: 1, Start: 0, End: 2}, {ID: 2, Start: 2, End: 3}}
	if !reflect.DeepEqual(fr.Spans(), want) {
		t.Errorf("spans = %v, want %v", fr.Spans(), want)
	}
	if got := fr.Col(0); !reflect.DeepEqual(got, []float64{1.5, 3, 5}) {
		t.Errorf("column a = %v", got)
	}
	if got := fr.Col(1); !reflect.DeepEqual(got, []float64{2, 4, 6.25}) {
		t.Errorf("column b = %v", got)
	}
	if got := fr.Labels(); !reflect.DeepEqual(got, []int{0, 1, 0}) {
		t.Errorf("labels = %v", got)
	}
	if !reflect.DeepEqual(d.t, []int32{0, 1, 0}) || !reflect.DeepEqual(d.kpi, []float64{12.5, 900, 7}) {
		t.Errorf("t = %v, kpi = %v", d.t, d.kpi)
	}
}

func TestFilterRuns(t *testing.T) {
	d := tinyDataset(t)
	f := d.FilterRuns(2)
	fr := f.Frame()
	if fr.Rows() != 1 || !reflect.DeepEqual(f.RunIDs(), []int{2}) {
		t.Fatalf("FilterRuns(2): %d rows, runs %v", fr.Rows(), f.RunIDs())
	}
	if fr.Col(0)[0] != 5 || fr.Col(1)[0] != 6.25 || f.t[0] != 0 || f.kpi[0] != 7 {
		t.Errorf("FilterRuns(2) row = %v, t %d, kpi %v", fr.Row(0, nil), f.t[0], f.kpi[0])
	}
	if both := d.FilterRuns(2, 1); frameDigest(both.Frame()) != frameDigest(d.Frame()) ||
		!reflect.DeepEqual(both.t, d.t) || !reflect.DeepEqual(both.kpi, d.kpi) {
		t.Error("FilterRuns over every run must reproduce the dataset in frame order")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := tinyDataset(t)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if strings.HasPrefix(buf.String(), tinyCSV) {
		t.Fatal("WriteCSV must group rows by run")
	}
	back, err := ReadCSV(&buf, nil)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if frameDigest(back.Frame()) != frameDigest(d.Frame()) {
		t.Error("round trip changed the frame")
	}
	if !reflect.DeepEqual(back.t, d.t) || !reflect.DeepEqual(back.kpi, d.kpi) {
		t.Errorf("round trip changed T/KPI: %v %v vs %v %v", back.t, back.kpi, d.t, d.kpi)
	}
}

func TestReadCSVWithCatalog(t *testing.T) {
	cat := pcp.DefaultCatalog()
	names := (&Dataset{Defs: cat.CombinedDefs()}).Names()
	row := "1,0,0,0" + strings.Repeat(",0", len(names))
	csv := "runid,t,label,kpi," + strings.Join(names, ",") + "\n" + row + "\n"
	back, err := ReadCSV(strings.NewReader(csv), cat)
	if err != nil {
		t.Fatal(err)
	}
	// Kind/domain metadata must be restored from the catalog.
	restored := false
	for _, d := range back.Defs {
		if d.Name == "kernel.all.pswitch" {
			restored = d.Kind == pcp.Counter
		}
	}
	if !restored {
		t.Error("catalog metadata not restored")
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(bytes.NewReader(nil), nil); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := ReadCSV(bytes.NewReader([]byte("x,y\n")), nil); err == nil {
		t.Error("expected error for malformed header")
	}
	if _, err := ReadCSV(bytes.NewReader([]byte("runid,t,label,kpi,a\n1,2\n")), nil); err == nil {
		t.Error("expected error for short row")
	}
	if _, err := ReadCSV(bytes.NewReader([]byte("runid,t,label,kpi,a\nx,0,0,1,1\n")), nil); err == nil {
		t.Error("expected error for bad runid")
	}
	if _, err := ReadCSV(bytes.NewReader([]byte("runid,t,label,kpi,a\n1,0,0,zz,1\n")), nil); err == nil {
		t.Error("expected error for bad kpi")
	}
}

func TestTable1Shape(t *testing.T) {
	cfgs := Table1()
	if len(cfgs) != 25 {
		t.Fatalf("Table1 has %d rows, want 25", len(cfgs))
	}
	ids := map[int]bool{}
	for _, c := range cfgs {
		if ids[c.ID] {
			t.Errorf("duplicate run ID %d", c.ID)
		}
		ids[c.ID] = true
		if c.MaxRate <= 0 || c.MinRate <= 0 {
			t.Errorf("run %d has empty traffic range", c.ID)
		}
		if c.Service == "" {
			t.Errorf("run %d has no service", c.ID)
		}
	}
	// Parallel pairs from the paper.
	pairs := map[int]int{3: 18, 4: 19, 5: 20, 6: 22, 10: 23}
	for _, c := range cfgs {
		if want, ok := pairs[c.ID]; ok && c.Par != want {
			t.Errorf("run %d Par = %d, want %d", c.ID, c.Par, want)
		}
	}
}

func TestTable1Profiles(t *testing.T) {
	for _, c := range Table1() {
		p := c.Profile()
		if p.CPUPerReq <= 0 {
			t.Errorf("run %d profile has no CPU demand", c.ID)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unknown service")
		}
	}()
	RunConfig{Service: "bogus"}.Profile()
}

func TestTrafficPatterns(t *testing.T) {
	for _, c := range Table1() {
		p := c.Traffic(1)
		for tt := 0; tt < 500; tt += 25 {
			v := p.At(tt)
			if v < 0 {
				t.Errorf("run %d traffic negative at %d", c.ID, tt)
			}
			if v > c.MaxRate*1.5 {
				t.Errorf("run %d traffic %v way above MaxRate %v", c.ID, v, c.MaxRate)
			}
		}
	}
}

func TestPairGroups(t *testing.T) {
	groups := PairGroups(Table1())
	seen := map[int]int{}
	pairCount := 0
	for _, g := range groups {
		if len(g) > 2 {
			t.Fatalf("group with %d members", len(g))
		}
		if len(g) == 2 {
			pairCount++
		}
		for _, c := range g {
			seen[c.ID]++
		}
	}
	if pairCount != 5 {
		t.Errorf("found %d pairs, want 5", pairCount)
	}
	if len(seen) != 25 {
		t.Errorf("groups cover %d runs, want 25", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("run %d appears %d times", id, n)
		}
	}
}

func TestGenerateSmallRun(t *testing.T) {
	// Generate just runs 1 (solr, container CPU) and 8 (memcache,
	// container CPU) with short durations; verify labels exist and both
	// classes appear for run 1.
	cfgs := []RunConfig{Table1()[0], Table1()[7]}
	rep, err := Generate(cfgs, GenOptions{Duration: 300, RampSeconds: 200, Seed: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	d := rep.Dataset
	if d.Frame().Rows() != 2*(300-5) {
		t.Fatalf("generated %d rows, want Duration-Warmup per run", d.Frame().Rows())
	}
	if len(d.Defs) == 0 {
		t.Fatal("no schema")
	}
	runs := d.RunIDs()
	if len(runs) != 2 {
		t.Fatalf("RunIDs = %v, want runs 1 and 8", runs)
	}
	frac := d.SaturatedFraction()
	if frac <= 0 || frac >= 1 {
		t.Errorf("saturated fraction %v: want both classes present", frac)
	}
	lab1, ok := rep.Thresholds[1]
	if !ok || !lab1.Saturates() {
		t.Errorf("run 1 should have a finite threshold, got %+v", lab1)
	}
	// Run 1's knee should be near its 857 r/s CPU capacity.
	if lab1.Threshold < 500 || lab1.Threshold > 1000 {
		t.Errorf("run 1 threshold %v, want near ~857", lab1.Threshold)
	}
}

func TestGenerateParallelPair(t *testing.T) {
	var pair []RunConfig
	for _, c := range Table1() {
		if c.ID == 3 || c.ID == 18 {
			pair = append(pair, c)
		}
	}
	rep, err := Generate(pair, GenOptions{Duration: 200, RampSeconds: 150, Seed: 2})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	runs := rep.Dataset.RunIDs()
	if len(runs) != 2 {
		t.Fatalf("pair should yield 2 runs, got %v", runs)
	}
}

func TestThresholdFromRamp(t *testing.T) {
	build := func(load workload.Pattern) (*apps.Engine, *apps.App, error) {
		c, err := cluster.New(apps.TrainingNode("t1"))
		if err != nil {
			return nil, nil, err
		}
		app, err := apps.Build(c, "x", load, []apps.ServiceSpec{
			{Name: "solr", Node: "t1", Profile: apps.SolrProfile(), Visit: 1, CPULimit: 3},
		})
		if err != nil {
			return nil, nil, err
		}
		eng, err := apps.NewEngine(c, app)
		return eng, app, err
	}
	lab, err := ThresholdFromRamp(build, 1200, 300)
	if err != nil {
		t.Fatalf("ThresholdFromRamp: %v", err)
	}
	if !lab.Saturates() {
		t.Fatal("solr@3cores under a 1200 r/s ramp must saturate")
	}
	if lab.Threshold < 500 || lab.Threshold > 1000 {
		t.Errorf("threshold %v, want near the ~857 r/s capacity", lab.Threshold)
	}
}
