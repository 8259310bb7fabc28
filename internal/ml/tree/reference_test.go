package tree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"monitorless/internal/frame"
	"monitorless/internal/ml"
)

// referenceOrder is the per-node comparison sort every exact tree used
// before the splitter learned to keep its order: samples by value under
// the column, ties by sample index. It is frozen here as the independent
// reference the shipped orderings are compared against.
func referenceOrder(order []int32, col []float64, smp []int) {
	sort.Slice(order, func(a, c int) bool {
		va, vc := col[smp[order[a]]], col[smp[order[c]]]
		if va != vc {
			return va < vc
		}
		return order[a] < order[c]
	})
}

// fitReference fits t with every node's order produced by referenceOrder
// and every impurity computed, never read from the unit-weight table.
func fitReference(t *Tree, fr *frame.Frame, smp, y []int, w []float64) error {
	b, err := t.newBuilder(fr, nil, smp, y, w)
	if err != nil {
		return err
	}
	b.entropy = nil
	b.nodeOrder = func(lo, hi, f int) []int32 {
		order := b.order[:hi-lo]
		copy(order, b.idx[lo:hi])
		referenceOrder(order, b.cols[f], b.smp)
		return order
	}
	b.build(0, len(b.idx), 0)
	t.finishFit()
	return nil
}

// requireSameTree compares two fitted trees bit for bit.
func requireSameTree(t *testing.T, got, want *Tree) {
	t.Helper()
	gf, gl, gr, gt, gp := got.Slabs()
	wf, wl, wr, wt, wp := want.Slabs()
	if len(gf) != len(wf) {
		t.Fatalf("%d nodes, reference has %d", len(gf), len(wf))
	}
	for i := range wf {
		if gf[i] != wf[i] || gl[i] != wl[i] || gr[i] != wr[i] ||
			math.Float64bits(gt[i]) != math.Float64bits(wt[i]) ||
			math.Float64bits(gp[i]) != math.Float64bits(wp[i]) {
			t.Fatalf("node %d = (f %d, thr %v, l %d, r %d, p %v), reference (f %d, thr %v, l %d, r %d, p %v)",
				i, gf[i], gt[i], gl[i], gr[i], gp[i], wf[i], wt[i], wl[i], wr[i], wp[i])
		}
	}
	gi, wi := got.FeatureImportances(), want.FeatureImportances()
	for i := range wi {
		if math.Float64bits(gi[i]) != math.Float64bits(wi[i]) {
			t.Fatalf("importance[%d] = %v, reference %v", i, gi[i], wi[i])
		}
	}
}

// splitCorpus is a frame built to make sample order matter: continuous,
// heavily tied, binary, constant and signed-zero columns, and one whose
// tie groups are about MinSamplesLeaf wide so they straddle the min-leaf
// boundary. Labels follow two columns with noise so trees grow deep.
func splitCorpus(n int, seed int64) (*frame.Frame, []int) {
	r := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		g := r.NormFloat64()
		zero := 0.0
		if r.Intn(2) == 0 {
			zero = math.Copysign(0, -1)
		}
		if r.Intn(4) == 0 {
			zero = float64(r.Intn(3) - 1)
		}
		x[i] = []float64{
			g,
			math.Round(r.NormFloat64() * 2),
			float64(r.Intn(2)),
			3.5,
			zero,
			float64(r.Intn(n/5 + 1)),
			r.Float64(),
			math.Round(g*3) / 3,
			r.ExpFloat64(),
		}
		if g+0.5*x[i][1] > 0.3 {
			y[i] = 1
		}
		if r.Float64() < 0.15 {
			y[i] = 1 - y[i]
		}
	}
	return ml.FrameOf(x), y
}

func TestExactSplitMatchesReference(t *testing.T) {
	fr, labels := splitCorpus(400, 11)
	r := rand.New(rand.NewSource(12))
	// A bootstrap of a row subset of the larger frame: duplicates, rows
	// never drawn, and AdaBoost-style weights spanning orders of
	// magnitude, so the order the running sums add in shows in the bits.
	rows := r.Perm(fr.Rows())[:300]
	smp := make([]int, 300)
	y := make([]int, len(smp))
	w := make([]float64, len(smp))
	for i := range smp {
		smp[i] = rows[r.Intn(len(rows))]
		y[i] = labels[smp[i]]
		w[i] = math.Exp(3 * r.NormFloat64())
	}
	rk := RankFrame(fr, rows, Config{})
	if rk == nil {
		t.Fatal("RankFrame returned nil for an all-features best-split tree")
	}
	for _, maxFeat := range []int{0, -1} {
		for _, depth := range []int{1, 5, 0} {
			for _, minLeaf := range []int{1, 5} {
				for _, crit := range []Criterion{Gini, Entropy} {
					cfg := Config{MaxDepth: depth, MinSamplesLeaf: minLeaf, Criterion: crit, MaxFeatures: maxFeat, Seed: 7}
					t.Run(fmt.Sprintf("feat%d/depth%d/leaf%d/%v", maxFeat, depth, minLeaf, crit), func(t *testing.T) {
						want := New(cfg)
						if err := fitReference(want, fr, smp, y, w); err != nil {
							t.Fatal(err)
						}
						got := New(cfg)
						if err := got.FitFrameSamples(fr, smp, y, w); err != nil {
							t.Fatal(err)
						}
						requireSameTree(t, got, want)
						if depth == 0 && len(want.feature) < 30 {
							t.Fatalf("unlimited tree has only %d nodes; the corpus no longer exercises deep partitions", len(want.feature))
						}
						// Ranks shared across trees, ranked over the row subset.
						shared := New(cfg)
						if err := shared.FitRankedSamples(fr, RankFrame(fr, rows, cfg), smp, y, w); err != nil {
							t.Fatal(err)
						}
						requireSameTree(t, shared, want)
					})
				}
			}
		}
	}

	t.Run("all rows, uniform weights", func(t *testing.T) {
		cfg := Config{MinSamplesLeaf: 3}
		want, got := New(cfg), New(cfg)
		if err := fitReference(want, fr, nil, labels, nil); err != nil {
			t.Fatal(err)
		}
		if err := got.FitFrameSamples(fr, nil, labels, nil); err != nil {
			t.Fatal(err)
		}
		requireSameTree(t, got, want)
	})

	// Unit weights: entropy fits of at most maxUnitEntropy samples read the
	// table, so these cases compare it against the computed reference —
	// nil and explicit weights, bootstrap duplicates, both order modes,
	// and sample counts on either side of the cap.
	big, bigLabels := splitCorpus(1100, 13)
	for _, n := range []int{400, maxUnitEntropy, maxUnitEntropy + 1} {
		smp := make([]int, n)
		y := make([]int, n)
		ones := make([]float64, n)
		for i := range smp {
			smp[i] = r.Intn(big.Rows())
			y[i] = bigLabels[smp[i]]
			ones[i] = 1
		}
		for _, maxFeat := range []int{0, -1} {
			for _, depth := range []int{5, 0} {
				for _, w := range [][]float64{nil, ones} {
					cfg := Config{MaxDepth: depth, MinSamplesLeaf: 2, Criterion: Entropy, MaxFeatures: maxFeat, Seed: 3}
					t.Run(fmt.Sprintf("unit/n%d/feat%d/depth%d/nilw%v", n, maxFeat, depth, w == nil), func(t *testing.T) {
						b, err := New(cfg).newBuilder(big, nil, smp, y, w)
						if err != nil {
							t.Fatal(err)
						}
						if cached := b.entropy != nil; cached != (n <= maxUnitEntropy) {
							t.Fatalf("n=%d: entropy table in use = %v", n, cached)
						}
						want, got := New(cfg), New(cfg)
						if err := fitReference(want, big, smp, y, w); err != nil {
							t.Fatal(err)
						}
						if err := got.FitFrameSamples(big, smp, y, w); err != nil {
							t.Fatal(err)
						}
						requireSameTree(t, got, want)
						if depth == 0 && len(want.feature) < 30 {
							t.Fatalf("unlimited tree has only %d nodes", len(want.feature))
						}
					})
				}
			}
		}
	}
	t.Run("all rows, nil weights, entropy", func(t *testing.T) {
		cfg := Config{MinSamplesLeaf: 3, Criterion: Entropy}
		want, got := New(cfg), New(cfg)
		if err := fitReference(want, fr, nil, labels, nil); err != nil {
			t.Fatal(err)
		}
		if err := got.FitFrameSamples(fr, nil, labels, nil); err != nil {
			t.Fatal(err)
		}
		requireSameTree(t, got, want)
	})

	if RankFrame(fr, nil, Config{MaxFeatures: -1}) != nil || RankFrame(fr, nil, Config{Splitter: Random}) != nil {
		t.Error("RankFrame ranked for a tree that sorts per node or not at all")
	}
}

// fuzzSplitCase decodes a fuzzer input into a small training set. Values
// come from a coarse signed grid (with −0) so ties are the rule; weights,
// labels and the sample → row map come from the same bytes. Bit 7 of the
// min-leaf byte selects unit weights (bit 6 then passes them as nil), the
// entropy criterion's table-lookup path.
func fuzzSplitCase(data []byte) (fr *frame.Frame, smp, y []int, w []float64, cfg Config) {
	if len(data) < 8 {
		return nil, nil, nil, nil, cfg
	}
	d := 1 + int(data[0])%4
	cfg = Config{
		MaxDepth:       int(data[1]) % 7,
		MinSamplesLeaf: 1 + int(data[2])%4,
		Criterion:      Criterion(data[3] % 2),
		MaxFeatures:    -int(data[3] >> 7), // all, or √d
		Seed:           int64(data[4]),
	}
	unit, nilW := data[2]&0x80 != 0, data[2]&0x40 != 0
	data = data[5:]
	nRows := len(data) / (d + 1)
	if nRows < 2 {
		return nil, nil, nil, nil, cfg
	}
	x := make([][]float64, nRows)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			b := int8(data[i*(d+1)+j])
			x[i][j] = float64(b/16) / 2
			if b == -1 {
				x[i][j] = math.Copysign(0, -1)
			}
		}
	}
	n := nRows + nRows/2 // more samples than rows: duplicates guaranteed
	smp, y, w = make([]int, n), make([]int, n), make([]float64, n)
	for i := range smp {
		b := data[(i%nRows)*(d+1)+d]
		smp[i] = (int(b)*31 + i*7) % nRows
		y[i] = int(b>>3) & 1
		w[i] = float64(1+int(b)%9) / 3
		if unit {
			w[i] = 1
		}
	}
	if unit && nilW {
		w = nil
	}
	return ml.FrameOf(x), smp, y, w, cfg
}

func FuzzExactSplitVsReference(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i, n := range []int{16, 64, 200, 400, 400} {
		seed := make([]byte, 5+n)
		r.Read(seed)
		// d 1..4, depth 0 (unlimited) / 3 / 6, all features except the last.
		copy(seed, []byte{byte(i), byte(3 * i), byte(i), byte(i&1) | byte(i/4)<<7})
		f.Add(seed)
	}
	f.Add([]byte{3, 0, 0, 0x80, 1, 0, 0xff, 0, 0xff, 0, 0xff, 9, 0, 0xff, 0, 0xff, 0, 0xff, 1})
	// Unit-weight entropy fits over d = 4, min leaf 2, unlimited depth, in
	// both order modes, explicit and nil weights: 60 samples, then 1 024
	// (683 rows, the table's cap) and 1 026 (684 rows, computed).
	for i, nRows := range []int{40, 683, 684} {
		for j, mode := range []byte{0, 0x80} {
			seed := make([]byte, 5+5*nRows)
			r.Read(seed)
			copy(seed, []byte{3, 0, 0x81 | byte(j)<<6, 1 | mode, byte(i)})
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, smp, y, w, cfg := fuzzSplitCase(data)
		if fr == nil {
			t.Skip()
		}
		want, got := New(cfg), New(cfg)
		if err := fitReference(want, fr, smp, y, w); err != nil {
			t.Skip(err)
		}
		if err := got.FitFrameSamples(fr, smp, y, w); err != nil {
			t.Fatal(err)
		}
		requireSameTree(t, got, want)
	})
}
