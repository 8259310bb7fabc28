package frame

import (
	"testing"

	"monitorless/internal/parallel"
)

// TestFrameOpAllocations is the allocation-regression gate wired into
// scripts/verify.sh: the zero-copy accessors must stay allocation-free and
// a row-range view must cost at most the view header plus its clipped span
// slice.
func TestFrameOpAllocations(t *testing.T) {
	f := testFrame(4, 50, 8, 11)
	var sink float64

	if n := testing.AllocsPerRun(100, func() {
		c := f.Col(3)
		sink += c[0]
	}); n != 0 {
		t.Errorf("Col allocates %.1f per op, want 0", n)
	}

	dst := make([]float64, f.NumCols())
	if n := testing.AllocsPerRun(100, func() {
		dst = f.Row(17, dst)
		sink += dst[0]
	}); n != 0 {
		t.Errorf("Row into reused dst allocates %.1f per op, want 0", n)
	}

	// A row-range view is one Frame header plus one clipped-span slice.
	if n := testing.AllocsPerRun(100, func() {
		v := f.RowRange(25, 125)
		sink += v.Col(0)[0]
	}); n > 3 {
		t.Errorf("RowRange allocates %.1f per op, want <= 3", n)
	}
	_ = sink
}

// TestConcurrentFoldViewsRace exercises satellite 3's race guarantee:
// grouped-CV fold views over one shared backing array are read-only and
// must be race-free under the deterministic parallel pool. Run with
// `go test -race`.
func TestConcurrentFoldViewsRace(t *testing.T) {
	f := testFrame(8, 40, 6, 12)
	sums := make([]float64, f.NumRuns())
	err := parallel.ForEach(f.NumRuns(), func(k int) error {
		v := f.RunView(k)
		var s float64
		for j := 0; j < v.NumCols(); j++ {
			for _, x := range v.Col(j) {
				s += x
			}
		}
		row := make([]float64, v.NumCols())
		for i := 0; i < v.Rows(); i++ {
			row = v.Row(i, row)
			s += row[0]
		}
		for _, l := range v.Labels() {
			s += float64(l)
		}
		sums[k] = s
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The same traversal serially must agree (determinism of the views).
	for k := 0; k < f.NumRuns(); k++ {
		v := f.RunView(k)
		var s float64
		for j := 0; j < v.NumCols(); j++ {
			for _, x := range v.Col(j) {
				s += x
			}
		}
		row := make([]float64, v.NumCols())
		for i := 0; i < v.Rows(); i++ {
			row = v.Row(i, row)
			s += row[0]
		}
		for _, l := range v.Labels() {
			s += float64(l)
		}
		if s != sums[k] {
			t.Errorf("run %d: concurrent sum %v != serial %v", k, sums[k], s)
		}
	}
}
