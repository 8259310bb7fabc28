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

func TestFingerprintFrame(t *testing.T) {
	fr := testSketchFrame(t, 1000, 3)
	fp := FingerprintFrame(fr, 10)
	if fp.Rows != 1000 || len(fp.Cols) != 3 {
		t.Fatalf("fingerprint shape rows=%d cols=%d", fp.Rows, len(fp.Cols))
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
	// Props are Quantize's occupancies of the training column.
	counts := make([]float64, len(fp.Cols[1].Props))
	col := fr.Col(1)
	for _, v := range col {
		counts[Quantize(fp.Cols[1].Edges, v)]++
	}
	for b, n := range counts {
		if got := fp.Cols[1].Props[b]; math.Abs(got-n/1000) > 1e-12 {
			t.Fatalf("bin %d prop %v, recount %v", b, got, n/1000)
		}
	}

	// Quantize is the first bin whose upper edge is ≥ v, on the values
	// where a binary search could disagree with that definition.
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
		if q := int(Quantize(edges, v)); q != want {
			t.Fatalf("v=%v: Quantize %d, first edge ≥ v is %d", v, q, want)
		}
	}

	// SetWatch keeps the marked columns; without a usable mask every
	// column is watched.
	if w := fp.Watched(); len(w) != 3 || w[0] != 0 || w[2] != 2 {
		t.Fatalf("default watch list %v, want all three columns", w)
	}
	fp.SetWatch([]bool{true, false, true})
	if w := fp.Watched(); len(w) != 2 || w[0] != 0 || w[1] != 2 {
		t.Fatalf("watch list %v, want [0 2]", w)
	}
	fp.SetWatch([]bool{true})
	if w := fp.Watched(); len(w) != 3 {
		t.Fatalf("mismatched mask left watch list %v, want all columns", w)
	}

	// Validate rejects edges nothing can search: too many for a uint8 code
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
