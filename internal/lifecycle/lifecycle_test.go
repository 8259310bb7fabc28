package lifecycle

import (
	"math"
	"math/rand"
	"testing"

	"monitorless/internal/frame"
)

// ---- shared fixtures -------------------------------------------------

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
