package tree

import (
	"bytes"
	"math/rand"
	"testing"
)

// gridData returns n samples over d integer-valued features (few distinct
// values per column) with a noisy threshold rule on feature 0. Integer
// values and uniform weights keep every weight sum exact in float64, so
// the exact and histogram splitters compute bit-identical gains.
func gridData(n, d int, seed int64) ([][]float64, []int) {
	r := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = float64(r.Intn(7))
		}
		x[i] = row
		if row[0] >= 4 || (row[0] >= 2 && row[d-1] >= 5) {
			y[i] = 1
		}
		if r.Float64() < 0.05 {
			y[i] = 1 - y[i]
		}
	}
	return x, y
}

func gobBytes(t *testing.T, tr *Tree) []byte {
	t.Helper()
	b, err := tr.GobEncode()
	if err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	return b
}

// Tie-break regression for the stable split scan: when two features give
// exactly the same gain, the scan must pick the first in feature order,
// and refitting the same tie-heavy weighted training set must reproduce
// the tree byte-for-byte. An unstable sort could permute equal feature
// values and change the running weight sums' float ordering at a near-tie
// boundary; sort.SliceStable pins the scan to input order.
func TestScanSplitsStableTieBreak(t *testing.T) {
	// Two identical columns: every split candidate has identical gain on
	// f0 and f1. First-wins means the root must split on feature 0.
	n := 40
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		v := float64(i % 4)
		x[i] = []float64{v, v}
		if v >= 2 {
			y[i] = 1
		}
	}
	tr := New(Config{})
	if err := tr.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	if got := tr.feature[0]; got != 0 {
		t.Errorf("root split feature = %d, want 0 (first-wins on equal gain)", got)
	}
	if got := tr.threshold[0]; got != 1.5 {
		t.Errorf("root threshold = %v, want 1.5", got)
	}

	// Tie-heavy values with float-unfriendly weights: the fitted tree must
	// be a pure function of the training set across repeated fits.
	r := rand.New(rand.NewSource(17))
	xs := make([][]float64, 200)
	ys := make([]int, 200)
	ws := make([]float64, 200)
	for i := range xs {
		xs[i] = []float64{float64(r.Intn(5)), float64(r.Intn(3))}
		ys[i] = r.Intn(2)
		ws[i] = 0.1 + 0.3*r.Float64()
	}
	var ref []byte
	for rep := 0; rep < 5; rep++ {
		tr := New(Config{Seed: 1})
		if err := tr.FitFrameSamples(frameOf(xs), nil, ys, ws); err != nil {
			t.Fatal(err)
		}
		b := gobBytes(t, tr)
		if rep == 0 {
			ref = b
		} else if !bytes.Equal(ref, b) {
			t.Fatalf("refit %d produced a different tree", rep)
		}
	}
}

// With fewer distinct values than bins, the histogram splitter evaluates
// exactly the cuts the exact splitter does, with bit-identical gains
// (integer weights) and the same first-wins tie order — so the two trees
// must agree on structure, per-node probabilities, importances, and every
// training-row prediction. Only thresholds may differ (node-local
// midpoints vs global bin edges), and both sit in the same value gap.
func TestHistMatchesExactOnFewDistinctValues(t *testing.T) {
	x, y := gridData(400, 5, 3)
	exact := New(Config{MinSamplesLeaf: 3})
	hist := New(Config{MinSamplesLeaf: 3, Splitter: Hist})
	if err := exact.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	if err := hist.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	if len(exact.feature) != len(hist.feature) {
		t.Fatalf("node count: exact %d, hist %d", len(exact.feature), len(hist.feature))
	}
	for i := range exact.feature {
		if exact.feature[i] != hist.feature[i] {
			t.Fatalf("node %d: exact splits on %d, hist on %d", i, exact.feature[i], hist.feature[i])
		}
		if exact.prob[i] != hist.prob[i] {
			t.Fatalf("node %d: prob %v vs %v", i, exact.prob[i], hist.prob[i])
		}
	}
	ei, hi := exact.FeatureImportances(), hist.FeatureImportances()
	for j := range ei {
		if ei[j] != hi[j] {
			t.Fatalf("importance[%d]: exact %v, hist %v", j, ei[j], hi[j])
		}
	}
	for i, row := range x {
		if pe, ph := exact.PredictProba(row), hist.PredictProba(row); pe != ph {
			t.Fatalf("row %d: exact proba %v, hist proba %v", i, pe, ph)
		}
	}
}

// The histogram splitter must still learn: XOR needs two coordinated
// splits, and the banded data checks generalization through quantized
// thresholds.
func TestHistLearnsXOR(t *testing.T) {
	x, y := xorData(200, 5)
	tr := New(Config{Splitter: Hist})
	if err := tr.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(tr, x, y); acc < 0.99 {
		t.Errorf("hist tree XOR accuracy = %.3f, want >= 0.99", acc)
	}
}

func TestHistGeneralizes(t *testing.T) {
	x, y := bandData(600, 4, 21)
	xt, yt := bandData(300, 4, 22)
	tr := New(Config{MinSamplesLeaf: 5, Splitter: Hist, Bins: 64})
	if err := tr.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(tr, xt, yt); acc < 0.85 {
		t.Errorf("hist tree held-out accuracy = %.3f, want >= 0.85", acc)
	}
}

func TestHistRespectsDepthAndStops(t *testing.T) {
	x, y := bandData(500, 3, 9)
	tr := New(Config{MaxDepth: 4, Splitter: Hist})
	if err := tr.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	if d := depth(tr); d > 4 {
		t.Errorf("Depth = %d, want <= 4", d)
	}
}

// Both histogram modes (full-feature subtraction trick and per-node
// feature subsampling) must reproduce the tree byte-for-byte on refit.
func TestHistDeterministicRefit(t *testing.T) {
	x, y := bandData(400, 6, 13)
	for _, maxFeat := range []int{0, -1} {
		var ref []byte
		for rep := 0; rep < 3; rep++ {
			tr := New(Config{MinSamplesLeaf: 2, Splitter: Hist, MaxFeatures: maxFeat, Seed: 42})
			if err := tr.FitFrame(frameOf(x), y, nil); err != nil {
				t.Fatal(err)
			}
			b := gobBytes(t, tr)
			if rep == 0 {
				ref = b
			} else if !bytes.Equal(ref, b) {
				t.Fatalf("MaxFeatures=%d: refit %d produced a different tree", maxFeat, rep)
			}
		}
	}
}

// A histogram-trained tree must survive the gob round trip: the decoded
// tree re-compacts into the SoA slabs and predicts identically.
func TestHistGobRoundTrip(t *testing.T) {
	x, y := bandData(300, 4, 31)
	tr := New(Config{MinSamplesLeaf: 2, Splitter: Hist, Seed: 7})
	if err := tr.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	data := gobBytes(t, tr)
	var back Tree
	if err := back.GobDecode(data); err != nil {
		t.Fatal(err)
	}
	if len(back.feature) != len(tr.feature) || depth(&back) != depth(tr) {
		t.Fatalf("round trip changed shape: %d/%d nodes, %d/%d depth",
			len(back.feature), len(tr.feature), depth(&back), depth(tr))
	}
	probe, _ := bandData(100, 4, 32)
	for i, row := range probe {
		if a, b := tr.PredictProba(row), back.PredictProba(row); a != b {
			t.Fatalf("probe %d: proba %v before, %v after round trip", i, a, b)
		}
	}
}

func TestParseSplitter(t *testing.T) {
	cases := map[string]Splitter{"best": Best, "exact": Best, "random": Random, "hist": Hist, "histogram": Hist}
	for in, want := range cases {
		got, err := ParseSplitter(in)
		if err != nil || got != want {
			t.Errorf("ParseSplitter(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseSplitter("bogus"); err == nil {
		t.Error("ParseSplitter(bogus) should error")
	}
}

func TestSplitterString(t *testing.T) {
	for s, want := range map[Splitter]string{Best: "best", Random: "random", Hist: "hist"} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

// The builder arena: growing a tree must not allocate per node beyond the
// node arrays themselves. Refitting a warm tree (node slabs already at
// capacity) bounds what remains — fixed builder setup on the exact path
// (plus the per-node feature draw when features are subsampled), and the
// O(depth) histogram pool on the hist path. The old per-node scheme allocated two
// index slices per split plus a feature list per node and blows these
// budgets several times over.
func TestTreeBuilderAllocations(t *testing.T) {
	// 20% label noise keeps the unbounded tree overfitting into hundreds
	// of nodes — the interesting regime for per-node allocation costs.
	r := rand.New(rand.NewSource(5))
	x := make([][]float64, 1024)
	y := make([]int, len(x))
	for i := range x {
		x[i] = []float64{r.NormFloat64(), r.NormFloat64()}
		if x[i][0] > 0 {
			y[i] = 1
		}
		if r.Float64() < 0.2 {
			y[i] = 1 - y[i]
		}
	}
	fr := frameOf(x)
	smp := make([]int, fr.Rows())
	for i := range smp {
		smp[i] = i
	}
	w := make([]float64, len(smp))
	for i := range w {
		w[i] = 1
	}

	// Exact path, every feature offered at every node: no node sorts. A
	// refit allocates fixed setup only — the frame's ranks (RankFrame's
	// d×rows int32 slab and value scratch), the per-tree slabs (sorted,
	// the d×n int32 per-feature order; idx and part, n int32 each; left,
	// n flags; the counting sort's bucket starts) and the compacted node
	// slabs — whatever the node count.
	exact := New(Config{})
	if err := exact.FitFrameSamples(fr, smp, y, w); err != nil {
		t.Fatal(err)
	}
	if len(exact.feature) < 100 {
		t.Fatalf("exact tree too small (%d nodes) for the allocation claim", len(exact.feature))
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := exact.FitFrameSamples(fr, smp, y, w); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Errorf("exact refit allocations = %.0f for %d nodes, want <= 40 (per-node allocation regression)", allocs, len(exact.feature))
	}

	// The same refit with entropy reads the unit-weight table, which is
	// built once per process — warmed here, before the measured fits —
	// and never per tree.
	unitEntropy()
	ent := New(Config{Criterion: Entropy})
	if err := ent.FitFrameSamples(fr, smp, y, w); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(20, func() {
		if err := ent.FitFrameSamples(fr, smp, y, w); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Errorf("entropy exact refit allocations = %.0f for %d nodes, want <= 40", allocs, len(ent.feature))
	}

	// Exact path, one of the two features offered per node, depth-capped:
	// ≤ 63 internal nodes → ≤ 63 node sorts, which sort a builder-arena
	// scratch in place. Budget covers the per-node feature draw and fixed
	// setup; the removed per-node index slices would roughly double it.
	sub := New(Config{MaxDepth: 6, MaxFeatures: 1})
	if err := sub.FitFrameSamples(fr, smp, y, w); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(20, func() {
		if err := sub.FitFrameSamples(fr, smp, y, w); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 150 {
		t.Errorf("subsampled exact refit allocations = %.0f, want <= 150 (per-node allocation regression)", allocs)
	}

	// Hist path, unbounded depth: hundreds of nodes, yet allocations stay
	// near-constant — the free-list keeps live histograms at O(depth) and
	// there is no sorting at all.
	hist := New(Config{Splitter: Hist})
	if err := hist.FitFrameSamples(fr, smp, y, w); err != nil {
		t.Fatal(err)
	}
	if len(hist.feature) < 100 {
		t.Fatalf("hist tree too small (%d nodes) for the allocation claim", len(hist.feature))
	}
	allocs = testing.AllocsPerRun(20, func() {
		if err := hist.FitFrameSamples(fr, smp, y, w); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 160 {
		t.Errorf("hist refit allocations = %.0f for %d nodes, want <= 160", allocs, len(hist.feature))
	}
}
