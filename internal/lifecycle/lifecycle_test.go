package lifecycle

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"monitorless/internal/core"
	"monitorless/internal/dataset"
	"monitorless/internal/features"
	"monitorless/internal/frame"
	"monitorless/internal/ml/forest"
	"monitorless/internal/ml/tree"
)

// ---- shared fixtures -------------------------------------------------

var (
	testModelOnce sync.Once
	testModel     *core.Model
	testDS        *dataset.Dataset
	testModelErr  error
)

// sharedModel trains (once per test binary) a compact model on a few
// Table 1 runs — the same recipe the core tests use.
func sharedModel(t testing.TB) (*core.Model, *dataset.Dataset) {
	t.Helper()
	testModelOnce.Do(func() {
		all := dataset.Table1()
		var cfgs []dataset.RunConfig
		for _, c := range all {
			switch c.ID {
			case 1, 6, 8, 10, 22, 23:
				cfgs = append(cfgs, c)
			}
		}
		rep, err := dataset.Generate(cfgs, dataset.GenOptions{Duration: 350, RampSeconds: 250, Seed: 3})
		if err != nil {
			testModelErr = err
			return
		}
		testDS = rep.Dataset
		testModel, testModelErr = core.Train(testDS, core.TrainConfig{
			Pipeline: features.Config{
				Normalize:    true,
				Reduce1:      features.ReduceFilter,
				TimeFeatures: true,
				Products:     true,
				Reduce2:      features.ReduceFilter,
				FilterTopK:   30,
				FilterTrees:  20,
				Seed:         7,
			},
			Forest: forest.Config{
				NumTrees:       30,
				MinSamplesLeaf: 10,
				Criterion:      tree.Entropy,
				Seed:           7,
			},
			Threshold: 0.4,
		})
	})
	if testModelErr != nil {
		t.Fatalf("shared model: %v", testModelErr)
	}
	return testModel, testDS
}

// syntheticFingerprint builds a reference sketch from gaussian columns.
func syntheticFingerprint(t testing.TB, cols, rows int) (*frame.Fingerprint, *frame.Frame) {
	t.Helper()
	schema := make(frame.Schema, cols)
	for j := range schema {
		schema[j] = frame.Col{Name: "m" + string(rune('a'+j))}
	}
	fr := frame.NewDense(schema, rows, nil, nil)
	rng := rand.New(rand.NewSource(11))
	for j := 0; j < cols; j++ {
		col := fr.Col(j)
		for i := range col {
			col[i] = float64(j+1)*10 + rng.NormFloat64()*float64(j+1)
		}
	}
	return frame.FingerprintFrame(fr, 0), fr
}

// ---- drift -----------------------------------------------------------

func TestMonitorNoDriftOnTrainingDistribution(t *testing.T) {
	const cols, rows = 4, 4000
	fp, fr := syntheticFingerprint(t, cols, rows)

	cell := NewCell()
	mon := NewMonitor(fp, rows)
	vec := make([]float64, cols)
	for i := 0; i < rows; i++ {
		cell.Observe(fp, "app", fr.Row(i, vec))
	}
	mon.Absorb(cell)

	scores := mon.Scores()
	if len(scores) != 1 {
		t.Fatalf("got %d scored apps, want 1", len(scores))
	}
	d := scores[0]
	if d.App != "app" || d.Samples != rows || d.Window != 1 {
		t.Fatalf("score header wrong: %+v", d)
	}
	// The window IS the training sample, so PSI and shift are ≈ 0 (PSI not
	// exactly 0 because of the epsilon floor on empty tail bins).
	if d.MaxPSI > 0.02 {
		t.Errorf("MaxPSI = %v on the training distribution itself, want ≈ 0", d.MaxPSI)
	}
	if d.MaxShift > 0.01 {
		t.Errorf("MaxShift = %v on the training distribution itself, want ≈ 0", d.MaxShift)
	}
	if mon.Windows() != 1 {
		t.Errorf("Windows = %d, want 1", mon.Windows())
	}
}

func TestMonitorDetectsShiftedDistribution(t *testing.T) {
	const cols, rows = 4, 4000
	fp, fr := syntheticFingerprint(t, cols, rows)

	cell := NewCell()
	mon := NewMonitor(fp, rows)
	vec := make([]float64, cols)
	for i := 0; i < rows; i++ {
		vec = fr.Row(i, vec)
		vec[2] += 15 // column 2 has std ≈ 3, so this is a ~5σ mean shift
		cell.Observe(fp, "app", vec)
	}
	mon.Absorb(cell)

	d := mon.Scores()[0]
	if d.MaxShift < 3 || d.MaxShiftFeature != "mc" {
		t.Errorf("shift not attributed: MaxShift=%v feature=%q", d.MaxShift, d.MaxShiftFeature)
	}
	if d.MaxPSI < 0.5 || d.MaxPSIFeature != "mc" {
		t.Errorf("PSI not attributed: MaxPSI=%v feature=%q", d.MaxPSI, d.MaxPSIFeature)
	}
	if len(d.Top) == 0 || d.Top[0].Name != "mc" {
		t.Errorf("top offender list wrong: %+v", d.Top)
	}
}

// TestMonitorShardMergeMatchesSingleCell pins the shard-merge algebra:
// samples split across many cells score identically to one cell seeing
// the whole stream.
func TestMonitorShardMergeMatchesSingleCell(t *testing.T) {
	const cols, rows = 3, 3000
	fp, fr := syntheticFingerprint(t, cols, rows)

	single := NewMonitor(fp, rows)
	one := NewCell()
	vec := make([]float64, cols)
	for i := 0; i < rows; i++ {
		vec = fr.Row(i, vec)
		vec[0] += 2
		one.Observe(fp, "app", vec)
	}
	single.Absorb(one)

	sharded := NewMonitor(fp, rows)
	cells := []*Cell{NewCell(), NewCell(), NewCell()}
	for i := 0; i < rows; i++ {
		vec = fr.Row(i, vec)
		vec[0] += 2
		cells[i%3].Observe(fp, "app", vec)
		if i%17 == 0 { // interleave partial scrapes
			sharded.Absorb(cells[i%3])
		}
	}
	for _, c := range cells {
		sharded.Absorb(c)
	}

	a, b := single.Scores()[0], sharded.Scores()[0]
	if a.Samples != b.Samples || a.MaxPSIFeature != b.MaxPSIFeature {
		t.Fatalf("merged window differs: %+v vs %+v", a, b)
	}
	if a.MaxPSI != b.MaxPSI { // PSI is bin-count based: exactly equal
		t.Errorf("merged PSI %v != single-cell PSI %v", b.MaxPSI, a.MaxPSI)
	}
	if math.Abs(a.MaxShift-b.MaxShift) > 1e-9 {
		t.Errorf("merged shift %v != single-cell shift %v", b.MaxShift, a.MaxShift)
	}
}

func TestMonitorResetOnNewFingerprint(t *testing.T) {
	fp1, fr := syntheticFingerprint(t, 2, 500)
	fp2 := frame.FingerprintFrame(fr, 5)

	mon := NewMonitor(fp1, 100)
	cell := NewCell()
	vec := make([]float64, 2)
	for i := 0; i < 100; i++ {
		cell.Observe(fp1, "app", fr.Row(i, vec))
	}
	mon.Absorb(cell)
	if len(mon.Scores()) != 1 {
		t.Fatal("window did not complete")
	}

	mon.Reset(fp2)
	if len(mon.Scores()) != 0 || mon.fp != fp2 {
		t.Fatal("Reset did not clear scores and rebind")
	}
	// A cell still bound to the old fingerprint is discarded, not merged.
	for i := 0; i < 100; i++ {
		cell.Observe(fp1, "app", fr.Row(i, vec))
	}
	mon.Absorb(cell)
	if len(mon.Scores()) != 0 {
		t.Fatal("stale-fingerprint cell was merged into the new monitor")
	}
}

func TestCellObserveAllocs(t *testing.T) {
	fp, fr := syntheticFingerprint(t, 6, 200)
	cell := NewCell()
	vec := make([]float64, 6)
	cell.Observe(fp, "app", fr.Row(0, vec)) // bind + create the app accum
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		vec = fr.Row(i%200, vec)
		cell.Observe(fp, "app", vec)
		i++
	})
	if allocs != 0 {
		t.Errorf("Cell.Observe allocates %.1f per sample at steady state, want 0", allocs)
	}
}

// ---- reservoir -------------------------------------------------------

func TestReservoirRingAndSnapshotSplit(t *testing.T) {
	schema := frame.Schema{{Name: "f0"}, {Name: "f1"}}
	r := NewReservoir(schema, 8)
	for i := 0; i < 11; i++ { // wraps: slots 0..2 overwritten by 8..10
		r.Add([]float64{float64(i), float64(-i)}, i%2)
	}
	if r.Len() != 8 || r.Total() != 11 || r.Cap() != 8 {
		t.Fatalf("ring accounting wrong: len=%d total=%d cap=%d", r.Len(), r.Total(), r.Cap())
	}

	fit, trainRows, holdRows := r.Snapshot(4)
	if fit.Rows() != 8 {
		t.Fatalf("snapshot rows = %d, want 8", fit.Rows())
	}
	if len(trainRows)+len(holdRows) != 8 || len(holdRows) != 2 {
		t.Fatalf("split sizes: train=%d hold=%d", len(trainRows), len(holdRows))
	}
	for _, i := range holdRows {
		if i%4 != 0 {
			t.Errorf("holdout row %d not on the holdout stride", i)
		}
	}
	// Ring semantics: slot s holds sample s for s ≥ 3, sample s+8 for s < 3.
	for s := 0; s < 8; s++ {
		want := float64(s)
		if s < 3 {
			want = float64(s + 8)
		}
		if got := fit.Col(0)[s]; got != want {
			t.Errorf("slot %d = %v, want %v", s, got, want)
		}
		if fit.Labels()[s] != int(want)%2 {
			t.Errorf("slot %d label = %d, want %d", s, fit.Labels()[s], int(want)%2)
		}
	}

	// The snapshot is decoupled: later Adds must not mutate it.
	r.Add([]float64{99, 99}, 1)
	if fit.Col(0)[3] == 99 {
		t.Error("snapshot aliases the live ring")
	}
}

func TestReservoirRejectsWidthMismatch(t *testing.T) {
	r := NewReservoir(frame.Schema{{Name: "f0"}}, 4)
	r.Add([]float64{1, 2}, 1)
	if r.Total() != 0 {
		t.Error("mismatched-width row was accepted")
	}
	if fit, _, _ := r.Snapshot(5); fit != nil {
		t.Error("empty reservoir snapshot not nil")
	}
}

func TestReservoirAddAllocs(t *testing.T) {
	r := NewReservoir(frame.Schema{{Name: "f0"}, {Name: "f1"}, {Name: "f2"}}, 64)
	vec := []float64{1, 2, 3}
	allocs := testing.AllocsPerRun(500, func() { r.Add(vec, 1) })
	if allocs != 0 {
		t.Errorf("Reservoir.Add allocates %.1f per row, want 0", allocs)
	}
}

// ---- manager ---------------------------------------------------------

// engineeredRows materializes the engineered training frame (with labels)
// the serving plane would feed the reservoir.
func engineeredRows(t testing.TB, m *core.Model, ds *dataset.Dataset) *frame.Frame {
	t.Helper()
	eng, err := m.Pipeline.TransformFrame(ds.Frame())
	if err != nil {
		t.Fatalf("TransformFrame: %v", err)
	}
	if eng.Labels() == nil {
		t.Fatal("engineered frame lost its labels")
	}
	return eng
}

// badChampion returns a copy of m whose forest was fit on INVERTED
// labels — a champion that is reliably worse than a challenger trained
// on the truth, making win/swap outcomes deterministic.
func badChampion(t testing.TB, m *core.Model, eng *frame.Frame) *core.Model {
	t.Helper()
	inverted := make([]int, eng.Rows())
	for i, y := range eng.Labels() {
		inverted[i] = 1 - y
	}
	bad, err := forest.Retrain(m.Forest, eng, inverted, nil, 99)
	if err != nil {
		t.Fatalf("fit inverted champion: %v", err)
	}
	return &core.Model{
		Pipeline:    m.Pipeline,
		Forest:      bad,
		Threshold:   m.Threshold,
		RawSchema:   m.RawSchema,
		Fingerprint: m.Fingerprint,
	}
}

func fillReservoir(mg *Manager, eng *frame.Frame) {
	vec := make([]float64, eng.NumCols())
	for i := 0; i < eng.Rows(); i++ {
		vec = eng.Row(i, vec)
		mg.Reservoir.Add(vec, eng.Labels()[i])
	}
}

func TestManagerRetrainChallengerWinsAndSwaps(t *testing.T) {
	m, ds := sharedModel(t)
	eng := engineeredRows(t, m, ds)
	champ := badChampion(t, m, eng)

	var swapped *core.Model
	var harvests int
	mg, err := NewManager(Config{
		Champion:      champ,
		Policy:        PolicyAuto,
		ReservoirCap:  4096,
		MinFitSamples: 256,
		Seed:          21,
		Swap: func(nm *core.Model, trainSamples int, reason string) error {
			swapped = nm
			if trainSamples == 0 || reason == "" {
				t.Errorf("swap callback got trainSamples=%d reason=%q", trainSamples, reason)
			}
			return nil
		},
		Harvest: func() { harvests++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	fillReservoir(mg, eng)

	rep := mg.RetrainOnce()
	if rep.Skipped != "" || rep.Err != "" {
		t.Fatalf("round did not train: %+v", rep)
	}
	if !rep.Win || !rep.Swapped {
		t.Fatalf("truth-trained challenger lost to inverted champion: %+v", rep)
	}
	if rep.ChallengerF1 <= rep.ChampionF1 {
		t.Fatalf("F1 ordering wrong: challenger %v champion %v", rep.ChallengerF1, rep.ChampionF1)
	}
	if rep.FitSeconds <= 0 || rep.TrainRows == 0 || rep.HoldoutRows == 0 {
		t.Errorf("report bookkeeping missing: %+v", rep)
	}
	if swapped == nil || mg.champion != swapped {
		t.Fatal("winning challenger was not promoted")
	}
	if swapped.Pipeline != champ.Pipeline {
		t.Error("promotion must keep the champion's pipeline pointer (warm swap)")
	}
	if swapped.Fingerprint != champ.Fingerprint {
		t.Error("promotion must keep the raw training fingerprint")
	}
	if harvests != 1 {
		t.Errorf("Harvest called %d times, want 1", harvests)
	}
	if st := mg.Status(); st.Wins != 1 || st.Losses != 0 {
		t.Errorf("counts = %d wins %d losses, want 1/0", st.Wins, st.Losses)
	}

	st := mg.Status()
	if st.Rounds != 1 || len(st.Reports) != 1 || st.ReservoirRows == 0 {
		t.Errorf("status incomplete: %+v", st)
	}

	// Determinism: a second manager over the same reservoir contents and
	// seed reports identical F1 numbers.
	mg2, err := NewManager(Config{
		Champion: badChampion(t, m, eng), Policy: PolicyShadow,
		ReservoirCap: 4096, MinFitSamples: 256, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	fillReservoir(mg2, eng)
	rep2 := mg2.RetrainOnce()
	if rep2.ChallengerF1 != rep.ChallengerF1 || rep2.ChampionF1 != rep.ChampionF1 {
		t.Errorf("retrain not deterministic: %+v vs %+v", rep, rep2)
	}
}

func TestManagerShadowPolicyNeverSwaps(t *testing.T) {
	m, ds := sharedModel(t)
	eng := engineeredRows(t, m, ds)
	champ := badChampion(t, m, eng)

	mg, err := NewManager(Config{
		Champion:      champ,
		Policy:        PolicyShadow,
		ReservoirCap:  4096,
		MinFitSamples: 256,
		Seed:          5,
		Swap: func(*core.Model, int, string) error {
			t.Error("shadow policy must never call Swap")
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fillReservoir(mg, eng)
	rep := mg.RetrainOnce()
	if !rep.Win {
		t.Fatalf("challenger should still win under shadow: %+v", rep)
	}
	if rep.Swapped || mg.champion != champ {
		t.Fatal("shadow policy swapped the champion")
	}
}

func TestManagerSkipsUnderfilledReservoir(t *testing.T) {
	m, _ := sharedModel(t)
	var outcomes []string
	mg, err := NewManager(Config{
		Champion:  m,
		Policy:    PolicyShadow,
		OnOutcome: func(o string) { outcomes = append(outcomes, o) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := mg.RetrainOnce()
	if rep.Skipped == "" || rep.Outcome() != "skip" {
		t.Fatalf("empty reservoir did not skip: %+v", rep)
	}
	// A few rows, all one class: still a skip (single-class guard).
	vec := make([]float64, len(m.EngineeredSchema()))
	for i := 0; i < 600; i++ {
		mg.Reservoir.Add(vec, 0)
	}
	rep = mg.RetrainOnce()
	if rep.Skipped == "" {
		t.Fatalf("single-class reservoir did not skip: %+v", rep)
	}
	if len(outcomes) != 2 || outcomes[0] != "skip" || outcomes[1] != "skip" {
		t.Errorf("OnOutcome saw %v, want two skips", outcomes)
	}
	if skips := mg.Status().Skips; skips != 2 {
		t.Errorf("skips = %d, want 2", skips)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, ok := range []string{"off", "shadow", "auto"} {
		if _, err := ParsePolicy(ok); err != nil {
			t.Errorf("ParsePolicy(%q): %v", ok, err)
		}
	}
	if _, err := ParsePolicy("yolo"); err == nil {
		t.Error("ParsePolicy accepted an unknown policy")
	}
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(Config{}); err == nil {
		t.Error("NewManager accepted a nil champion")
	}
}

// ---- benchmarks ------------------------------------------------------

// BenchmarkRetrainChallenger measures one full shadow-retrain round over
// a populated reservoir (snapshot, challenger fit, holdout comparison).
func BenchmarkRetrainChallenger(b *testing.B) {
	m, ds := sharedModel(b)
	eng := engineeredRows(b, m, ds)
	mg, err := NewManager(Config{
		Champion: m, Policy: PolicyShadow,
		ReservoirCap: 4096, MinFitSamples: 256, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	fillReservoir(mg, eng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := mg.RetrainOnce()
		if rep.Skipped != "" || rep.Err != "" {
			b.Fatalf("round failed: %+v", rep)
		}
	}
}
