package frame

import (
	"math"
	"math/rand"
	"testing"
)

func testSketchFrame(t *testing.T, rows int, seed int64) *Frame {
	t.Helper()
	schema := Schema{{Name: "a"}, {Name: "b"}, {Name: "const"}}
	fr := NewDense(schema, rows, nil, nil)
	rng := rand.New(rand.NewSource(seed))
	a, b, c := fr.Col(0), fr.Col(1), fr.Col(2)
	for i := 0; i < rows; i++ {
		a[i] = rng.NormFloat64()
		b[i] = 10 + 3*rng.Float64()
		c[i] = 4.25
	}
	return fr
}

func TestMomentsMatchBatch(t *testing.T) {
	fr := testSketchFrame(t, 500, 1)
	m := NewMoments(fr.NumCols())
	row := make([]float64, fr.NumCols())
	for i := 0; i < fr.Rows(); i++ {
		m.Observe(fr.Row(i, row))
	}
	if got := m.Count(); got != 500 {
		t.Fatalf("count = %v, want 500", got)
	}
	for j := 0; j < fr.NumCols(); j++ {
		col := fr.Col(j)
		var sum float64
		for _, v := range col {
			sum += v
		}
		mean := sum / float64(len(col))
		var m2 float64
		for _, v := range col {
			m2 += (v - mean) * (v - mean)
		}
		wantVar := m2 / float64(len(col))
		if d := math.Abs(m.Mean(j) - mean); d > 1e-9 {
			t.Errorf("col %d mean %v, want %v", j, m.Mean(j), mean)
		}
		if d := math.Abs(m.Var(j) - wantVar); d > 1e-9 {
			t.Errorf("col %d var %v, want %v", j, m.Var(j), wantVar)
		}
	}
}

func TestMomentsMergeMatchesSingleStream(t *testing.T) {
	fr := testSketchFrame(t, 400, 2)
	whole := NewMoments(fr.NumCols())
	parts := []*Moments{NewMoments(fr.NumCols()), NewMoments(fr.NumCols()), NewMoments(fr.NumCols())}
	row := make([]float64, fr.NumCols())
	for i := 0; i < fr.Rows(); i++ {
		fr.Row(i, row)
		whole.Observe(row)
		parts[i%3].Observe(row)
	}
	merged := NewMoments(fr.NumCols())
	merged.Merge(parts[0])
	merged.Merge(parts[1])
	merged.Merge(parts[2])
	if merged.Count() != whole.Count() {
		t.Fatalf("merged count %v, want %v", merged.Count(), whole.Count())
	}
	for j := 0; j < fr.NumCols(); j++ {
		if d := math.Abs(merged.Mean(j) - whole.Mean(j)); d > 1e-9 {
			t.Errorf("col %d merged mean %v, single %v", j, merged.Mean(j), whole.Mean(j))
		}
		if d := math.Abs(merged.Var(j) - whole.Var(j)); d > 1e-9 {
			t.Errorf("col %d merged var %v, single %v", j, merged.Var(j), whole.Var(j))
		}
	}
	merged.Reset()
	if merged.Count() != 0 || merged.Mean(0) != 0 || merged.Var(0) != 0 {
		t.Fatal("reset did not zero the accumulator")
	}
}

func TestFingerprintFrame(t *testing.T) {
	fr := testSketchFrame(t, 1000, 3)
	fp := FingerprintFrame(fr, 10)
	if fp.Rows != 1000 || fp.NumCols() != 3 {
		t.Fatalf("fingerprint shape rows=%d cols=%d", fp.Rows, fp.NumCols())
	}
	if err := fp.Validate(3); err != nil {
		t.Fatal(err)
	}
	if err := fp.Validate(2); err == nil {
		t.Fatal("Validate accepted wrong column count")
	}
	// Gaussian column: ~10 near-equal-frequency bins, mean ≈ 0, std ≈ 1.
	c := fp.Cols[0]
	if c.Name != "a" {
		t.Fatalf("col 0 name %q", c.Name)
	}
	if math.Abs(c.Mean) > 0.2 || math.Abs(c.Std-1) > 0.2 {
		t.Fatalf("gaussian col sketch mean=%v std=%v", c.Mean, c.Std)
	}
	if n := len(c.Edges) + 1; n != 10 {
		t.Fatalf("gaussian col has %d bins, want 10", n)
	}
	var total float64
	for _, p := range c.Props {
		if p < 0.05 || p > 0.2 {
			t.Fatalf("equal-frequency bin proportion %v out of range: %v", p, c.Props)
		}
		total += p
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("props sum to %v", total)
	}
	// Constant column degenerates to a single bin with all the mass.
	cc := fp.Cols[2]
	if len(cc.Edges) != 0 || len(cc.Props) != 1 || cc.Props[0] != 1 {
		t.Fatalf("constant col sketch edges=%v props=%v", cc.Edges, cc.Props)
	}
	if cc.Std != 0 || cc.Min != 4.25 || cc.Max != 4.25 {
		t.Fatalf("constant col stats %+v", cc)
	}
	// Bin() agrees with the training occupancy definition.
	counts := make([]float64, fp.NumBins(1))
	col := fr.Col(1)
	for _, v := range col {
		counts[fp.Bin(1, v)]++
	}
	for b, n := range counts {
		if got := fp.Cols[1].Props[b]; math.Abs(got-n/1000) > 1e-12 {
			t.Fatalf("bin %d prop %v, recount %v", b, got, n/1000)
		}
	}
	if fp.TotalBins() != 10+10+1 {
		t.Fatalf("TotalBins = %d", fp.TotalBins())
	}

	// Bin is Quantize — the first bin whose upper edge is ≥ v — on the
	// values where a binary search could disagree with that definition.
	edges := fp.Cols[0].Edges
	probes := []float64{math.NaN(), math.Inf(-1), math.Inf(1)}
	for i, e := range edges {
		probes = append(probes, e)
		if i > 0 {
			probes = append(probes, (edges[i-1]+e)/2)
		}
	}
	for _, v := range probes {
		want := len(edges)
		for i, e := range edges {
			if e >= v {
				want = i
				break
			}
		}
		if got, q := fp.Bin(0, v), int(Quantize(edges, v)); got != want || q != want {
			t.Fatalf("v=%v: Bin %d, Quantize %d, first edge ≥ v is %d", v, got, q, want)
		}
	}

	// Validate rejects edges Bin cannot search: too many for a uint8 code
	// budget, NaN, or decreasing. Equal neighbours stay legal.
	withEdges := func(e []float64) *Fingerprint {
		return &Fingerprint{Cols: []ColFingerprint{{Name: "x", Edges: e, Props: make([]float64, len(e)+1)}}}
	}
	ramp := make([]float64, MaxFingerprintBins)
	for i := range ramp {
		ramp[i] = float64(i)
	}
	if err := withEdges(ramp[:MaxFingerprintBins-1]).Validate(1); err != nil {
		t.Fatalf("Validate rejected %d edges: %v", MaxFingerprintBins-1, err)
	}
	if err := withEdges([]float64{1, 1, 2}).Validate(1); err != nil {
		t.Fatalf("Validate rejected equal neighbouring edges: %v", err)
	}
	for name, e := range map[string][]float64{
		"oversize":   ramp,
		"NaN":        {1, math.NaN(), 3},
		"decreasing": {1, 3, 2},
	} {
		if err := withEdges(e).Validate(1); err == nil {
			t.Errorf("Validate accepted %s edges", name)
		}
	}
}

func TestMomentsObserveAllocs(t *testing.T) {
	m := NewMoments(32)
	row := make([]float64, 32)
	allocs := testing.AllocsPerRun(100, func() { m.Observe(row) })
	if allocs != 0 {
		t.Fatalf("Moments.Observe allocates %v/op, want 0", allocs)
	}
}
