package dataset

import (
	"reflect"
	"runtime"
	"testing"
)

// TestGenerateDeterministicAcrossGOMAXPROCS regenerates a mixed corpus
// (two singleton runs plus one parallel pair, i.e. three concurrent
// groups) at pool widths 1 and 8 and requires byte-identical reports:
// same frame bytes, same T and KPI columns, same discovered thresholds.
func TestGenerateDeterministicAcrossGOMAXPROCS(t *testing.T) {
	var cfgs []RunConfig
	for _, c := range Table1() {
		switch c.ID {
		case 1, 8, 3, 18: // runs 3 and 18 form a parallel pair
			cfgs = append(cfgs, c)
		}
	}
	if len(cfgs) != 4 {
		t.Fatalf("expected 4 configs, got %d", len(cfgs))
	}
	opt := GenOptions{Duration: 200, RampSeconds: 150, Seed: 5}

	run := func() *Report {
		rep, err := Generate(cfgs, opt)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		return rep
	}
	old := runtime.GOMAXPROCS(1)
	narrow := run()
	runtime.GOMAXPROCS(8)
	wide := run()
	runtime.GOMAXPROCS(old)

	if !reflect.DeepEqual(narrow.Dataset.Defs, wide.Dataset.Defs) {
		t.Fatal("schema differs across GOMAXPROCS")
	}
	if got, want := frameDigest(wide.Dataset.Frame()), frameDigest(narrow.Dataset.Frame()); got != want {
		t.Fatalf("frame differs across GOMAXPROCS: %s vs %s", want, got)
	}
	if !reflect.DeepEqual(narrow.Dataset.t, wide.Dataset.t) {
		t.Fatal("T column differs across GOMAXPROCS")
	}
	if !reflect.DeepEqual(narrow.Dataset.kpi, wide.Dataset.kpi) {
		t.Fatal("KPI column differs across GOMAXPROCS")
	}
	// Layout: PairGroups order, Duration−Warmup rows per run, T ascending
	// from the warmup within each run.
	fr := narrow.Dataset.Frame()
	if got, want := narrow.Dataset.RunIDs(), []int{1, 3, 18, 8}; !reflect.DeepEqual(got, want) {
		t.Errorf("run order %v, want %v", got, want)
	}
	for _, sp := range fr.Spans() {
		if sp.End-sp.Start != opt.Duration-5 {
			t.Errorf("run %d has %d rows, want %d", sp.ID, sp.End-sp.Start, opt.Duration-5)
		}
		for k := sp.Start; k < sp.End; k++ {
			if got := narrow.Dataset.t[k]; got != int32(5+k-sp.Start) {
				t.Fatalf("run %d row %d: t = %d, want %d", sp.ID, k-sp.Start, got, 5+k-sp.Start)
			}
		}
	}
	if !reflect.DeepEqual(narrow.Thresholds, wide.Thresholds) {
		t.Errorf("thresholds differ across GOMAXPROCS:\n 1: %+v\n 8: %+v",
			narrow.Thresholds, wide.Thresholds)
	}
}
