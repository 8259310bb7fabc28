package frame

import (
	"math"
	"math/rand"
	"testing"

	"monitorless/internal/parallel"
)

func binnedTestFrame(n, d int, seed int64) *Frame {
	fr := NewDense(make(Schema, d), n, nil, nil)
	r := rand.New(rand.NewSource(seed))
	for j := 0; j < d; j++ {
		col := fr.Col(j)
		for i := range col {
			col[i] = r.NormFloat64()
		}
	}
	return fr
}

// Few distinct values: one bin per distinct value, edges at the same
// midpoints the exact splitter would scan.
func TestBinFrameDistinctValueEdges(t *testing.T) {
	fr := NewDense(make(Schema, 1), 6, nil, nil)
	copy(fr.Col(0), []float64{3, 1, 2, 1, 3, 2})
	bn := BinFrame(fr, 256, nil)

	if got := bn.NumBins(0); got != 3 {
		t.Fatalf("NumBins = %d, want 3", got)
	}
	wantEdges := []float64{1.5, 2.5}
	for k, want := range wantEdges {
		if got := bn.Edge(0, k); got != want {
			t.Errorf("Edge(0,%d) = %v, want %v", k, got, want)
		}
	}
	wantCodes := []uint8{2, 0, 1, 0, 2, 1}
	for i, want := range wantCodes {
		if got := bn.ColCodes(0)[i]; got != want {
			t.Errorf("Code(%d,0) = %d, want %d", i, got, want)
		}
	}
}

// The fundamental split equivalence: code(v) <= b  ⟺  v <= Edge(j, b),
// for every value and every bin boundary. Histogram training partitions
// by codes while inference compares raw values against the edge, so any
// violation would desynchronize training and serving.
func TestBinFrameCodeEdgeConsistency(t *testing.T) {
	fr := binnedTestFrame(500, 4, 7)
	// Inject heavy ties so boundaries land on repeated values too.
	col := fr.Col(2)
	for i := range col {
		col[i] = float64(int(col[i] * 4))
	}
	bn := BinFrame(fr, 16, nil)
	for j := 0; j < fr.NumCols(); j++ {
		for i := 0; i < fr.Rows(); i++ {
			v := fr.Col(j)[i]
			c := int(bn.ColCodes(j)[i])
			for b := 0; b+1 < bn.NumBins(j); b++ {
				if (c <= b) != (v <= bn.Edge(j, b)) {
					t.Fatalf("col %d row %d: code=%d edge[%d]=%v value=%v disagree",
						j, i, c, b, bn.Edge(j, b), v)
				}
			}
		}
	}
}

func TestBinFrameQuantileBalance(t *testing.T) {
	fr := binnedTestFrame(4096, 1, 11)
	const maxBins = 16
	bn := BinFrame(fr, maxBins, nil)
	if got := bn.NumBins(0); got != maxBins {
		t.Fatalf("NumBins = %d, want %d", got, maxBins)
	}
	counts := make([]int, maxBins)
	for _, c := range bn.ColCodes(0) {
		counts[c]++
	}
	// Continuous data, exact quantile cuts: every bin should hold about
	// n/maxBins rows. Allow 2x slack for cut granularity.
	want := fr.Rows() / maxBins
	for b, c := range counts {
		if c == 0 || c > 2*want {
			t.Errorf("bin %d holds %d rows (ideal %d)", b, c, want)
		}
	}
}

// Edges from a row subset, codes for every row: rows outside the fitting
// subset must still code consistently with the shared edges.
func TestBinFrameSubsetRows(t *testing.T) {
	fr := binnedTestFrame(300, 3, 5)
	rows := make([]int, 0, 150)
	for i := 0; i < 300; i += 2 {
		rows = append(rows, i)
	}
	bn := BinFrame(fr, 32, rows)
	if bn.Rows() != fr.Rows() {
		t.Fatalf("codes cover %d rows, want %d", bn.Rows(), fr.Rows())
	}
	for j := 0; j < fr.NumCols(); j++ {
		for i := 0; i < fr.Rows(); i++ {
			v := fr.Col(j)[i]
			c := int(bn.ColCodes(j)[i])
			if c > 0 && v <= bn.Edge(j, c-1) {
				t.Fatalf("col %d row %d: value %v below own bin %d", j, i, v, c)
			}
			if c+1 < bn.NumBins(j) && v > bn.Edge(j, c) {
				t.Fatalf("col %d row %d: value %v above own bin %d", j, i, v, c)
			}
		}
	}
}

// Binning fans per-column work across the pool; the result must be
// byte-identical at any worker count.
func TestBinFrameDeterministicAcrossWorkers(t *testing.T) {
	fr := binnedTestFrame(1000, 8, 9)
	run := func(workers int) *Binned {
		parallel.SetDefaultWorkers(workers)
		defer parallel.SetDefaultWorkers(0)
		return BinFrame(fr, 64, nil)
	}
	one := run(1)
	eight := run(8)
	for j := 0; j < fr.NumCols(); j++ {
		if one.NumBins(j) != eight.NumBins(j) {
			t.Fatalf("col %d: %d bins vs %d bins", j, one.NumBins(j), eight.NumBins(j))
		}
		for b := 0; b+1 < one.NumBins(j); b++ {
			if one.Edge(j, b) != eight.Edge(j, b) {
				t.Fatalf("col %d edge %d differs", j, b)
			}
		}
		c1, c8 := one.ColCodes(j), eight.ColCodes(j)
		for i := range c1 {
			if c1[i] != c8[i] {
				t.Fatalf("col %d row %d code differs", j, i)
			}
		}
	}
}

func TestBinColumnsMatchesBinFrame(t *testing.T) {
	fr := binnedTestFrame(200, 5, 3)
	cols := make([][]float64, fr.NumCols())
	for j := range cols {
		cols[j] = fr.Col(j)
	}
	a := BinFrame(fr, 32, nil)
	b := BinColumns(cols, fr.Rows(), 32, nil)
	for j := range cols {
		ca, cb := a.ColCodes(j), b.ColCodes(j)
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("col %d row %d: BinFrame and BinColumns disagree", j, i)
			}
		}
	}
}

// FuzzOrderKey holds OrderKey to the float order it encodes: for any two
// bit patterns neither of which is NaN, OrderKey(a) ≤ OrderKey(b) ⟺
// a ≤ b, and every NaN, of either sign and any payload, keys above +Inf.
// The seeds cover ±0 (equal as floats, not as bits), NaN of both signs,
// ±Inf, ±MaxFloat64, the subnormals around zero and adjacent normals.
func FuzzOrderKey(f *testing.F) {
	for _, s := range [][2]uint64{
		{0, 1 << 63},                             // +0, −0
		{0x7ff0000000000000, 0xfff0000000000000}, // +Inf, −Inf
		{0xfff8000000000001, 0x7ff8000000000001}, // −NaN with payload, +NaN
		{1, 0x8000000000000001},                  // ± smallest subnormal
		{0x7fefffffffffffff, 0xffefffffffffffff}, // ±MaxFloat64
		{0x3ff0000000000000, 0x3ff0000000000001}, // 1 and its successor
		{0xbff0000000000000, 0xbff0000000000001}, // −1 and its predecessor
		{0x000fffffffffffff, 0x0010000000000000}, // largest subnormal, smallest normal
	} {
		f.Add(s[0], s[1])
	}
	inf := OrderKey(math.Inf(1))
	f.Fuzz(func(t *testing.T, ab, bb uint64) {
		a, b := math.Float64frombits(ab), math.Float64frombits(bb)
		ka, kb := OrderKey(a), OrderKey(b)
		for _, p := range [][2]uint64{{ab, ka}, {bb, kb}} {
			if math.IsNaN(math.Float64frombits(p[0])) && p[1] <= inf {
				t.Fatalf("NaN %#x keys to %#x, not above +Inf's %#x", p[0], p[1], inf)
			}
		}
		if math.IsNaN(a) || math.IsNaN(b) {
			return
		}
		if (ka <= kb) != (a <= b) {
			t.Fatalf("%v (%#x) ≤ %v (%#x) is %v, but their keys %#x ≤ %#x is %v",
				a, ab, b, bb, a <= b, ka, kb, ka <= kb)
		}
	})
}
