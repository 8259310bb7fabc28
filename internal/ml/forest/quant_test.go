package forest

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"monitorless/internal/frame"
	"monitorless/internal/ml"
	"monitorless/internal/ml/tree"
)

// quantData builds a training set that exercises every lowering regime:
// continuous columns, heavily tied integer columns (whose bin edges are
// the same x.5 midpoints the exact splitter picks), a constant column
// (single distinct value — unsplittable, zero bin edges), and a column
// with extreme-magnitude outliers. (±Inf is exercised at predict time —
// TestQuantPredictEdgeValues — since training validation rejects
// non-finite samples.)
func quantData(n int, seed int64) ([][]float64, []int) {
	r := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		row := make([]float64, 6)
		row[0] = r.NormFloat64() * 3 // continuous
		row[1] = float64(r.Intn(8))  // tied integers
		row[2] = 42.5                // constant: never split, no edges
		row[3] = r.NormFloat64()     // continuous
		row[4] = float64(r.Intn(3))  // very few distinct values
		row[5] = r.NormFloat64()     // extreme outliers below
		if i%97 == 0 {
			row[5] = 1e300
		}
		x[i] = row
		if row[0]+0.7*row[1]-row[3] > 2 {
			y[i] = 1
		}
	}
	return x, y
}

func fitQuantForest(t *testing.T, x [][]float64, y []int, sp tree.Splitter) *Forest {
	t.Helper()
	f := New(Config{NumTrees: 20, MinSamplesLeaf: 5, Splitter: sp, Seed: 11})
	if err := f.Fit(x, y); err != nil {
		t.Fatalf("fit: %v", err)
	}
	return f
}

// assertBitIdentical fails on the first probability whose bits differ.
func assertBitIdentical(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: row %d: quant %v (%#x) vs float %v (%#x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// floatProbs computes the reference probabilities through the float tree
// walk of a copy with the compiled form dropped.
func floatProbs(f *Forest, fr *frame.Frame, rows []int) []float64 {
	ref := *f
	ref.DropQuant()
	return ref.PredictProbaFrameRows(fr, rows)
}

// TestHistForestCompilesFullyQuantized pins the core lowering guarantee:
// histogram thresholds are exact bin-edge values, so a hist-trained
// forest compiles, and columns the forest never tests (the constant
// column) get no code-slab slot.
func TestHistForestCompilesFullyQuantized(t *testing.T) {
	x, y := quantData(1500, 5)
	f := fitQuantForest(t, x, y, tree.Hist)
	q := f.Quant()
	if q == nil || !q.FullyQuantized() {
		t.Fatal("hist fit did not compile a quantized predictor")
	}
	if q.NumSlots() == 0 {
		t.Fatal("no tested column — forest learned nothing")
	}
	// Column 2 is constant: unsplittable, so no slot may be assigned.
	if q.NumSlots() >= ml.FrameOf(x).NumCols() {
		t.Fatalf("slot count %d not below column count %d (constant column got a slot)",
			q.NumSlots(), ml.FrameOf(x).NumCols())
	}
	if got := len(q.edges); got != len(x[0]) {
		t.Fatalf("%d edge sets for %d columns", got, len(x[0]))
	}
}

// TestQuantBitIdentityDense: the compiled path must reproduce the float
// batch walk bit for bit over a dense frame — full-frame, a scattered
// row subset, and against the per-row PredictProba reference.
func TestQuantBitIdentityDense(t *testing.T) {
	x, y := quantData(1500, 5)
	f := fitQuantForest(t, x, y, tree.Hist)
	fr := ml.FrameOf(x)

	quant := f.PredictProbaFrameRows(fr, nil)
	assertBitIdentical(t, "dense full-frame", floatProbs(f, fr, nil), quant)
	for i := 0; i < len(x); i += 211 {
		if p := f.PredictProba(x[i]); math.Float64bits(p) != math.Float64bits(quant[i]) {
			t.Fatalf("row %d: per-row %v vs batch %v", i, p, quant[i])
		}
	}

	rows := make([]int, 0, len(x)/3)
	for i := len(x) - 1; i >= 0; i -= 3 {
		rows = append(rows, i) // descending, non-contiguous
	}
	assertBitIdentical(t, "row subset", floatProbs(f, fr, rows), f.PredictProbaFrameRows(fr, rows))
}

// TestQuantWorkerCountInvariance: disjoint per-block output ranges and
// in-block tree-order accumulation make the result bit-identical at any
// block-level parallelism.
func TestQuantWorkerCountInvariance(t *testing.T) {
	x, y := quantData(2100, 7) // 9 blocks at 256 rows/block
	f := fitQuantForest(t, x, y, tree.Hist)
	fr := ml.FrameOf(x)
	q := f.Quant()

	q.SetParallelism(1)
	want := f.PredictProbaFrameRows(fr, nil)
	assertBitIdentical(t, "serial vs float", floatProbs(f, fr, nil), want)
	for _, w := range []int{2, 4, 8} {
		q.SetParallelism(w)
		assertBitIdentical(t, "workers", want, f.PredictProbaFrameRows(fr, nil))
	}
	q.SetParallelism(0)
}

// TestQuantPredictEdgeValues feeds the traversal the inputs most likely
// to break a quantized compare: values exactly on bin edges, one ulp on
// either side of an edge, ±Inf, NaN, and values outside the training
// range. Every one must decide identically to the float walk.
func TestQuantPredictEdgeValues(t *testing.T) {
	x, y := quantData(1500, 5)
	f := fitQuantForest(t, x, y, tree.Hist)
	edges := f.Quant().edges

	var probes [][]float64
	add := func(mutate func(row []float64)) {
		row := append([]float64(nil), x[0]...)
		mutate(row)
		probes = append(probes, row)
	}
	// Exact edge values and their ulp neighbours, for every column that
	// has edges: first, middle and last edge of each.
	for j, e := range edges {
		if len(e) == 0 {
			continue
		}
		for _, c := range []int{0, len(e) / 2, len(e) - 1} {
			v := e[c]
			add(func(row []float64) { row[j] = v })
			add(func(row []float64) { row[j] = math.Nextafter(v, math.Inf(-1)) })
			add(func(row []float64) { row[j] = math.Nextafter(v, math.Inf(1)) })
		}
	}
	for j := range edges {
		j := j
		add(func(row []float64) { row[j] = math.Inf(1) })
		add(func(row []float64) { row[j] = math.Inf(-1) })
		add(func(row []float64) { row[j] = math.NaN() })
		add(func(row []float64) { row[j] = 1e300 })
		add(func(row []float64) { row[j] = -1e300 })
	}

	fr := ml.FrameOf(probes)
	quant := f.PredictProbaFrameRows(fr, nil)
	assertBitIdentical(t, "edge probes", floatProbs(f, fr, nil), quant)
	for i, row := range probes {
		if p := f.PredictProba(row); math.Float64bits(p) != math.Float64bits(quant[i]) {
			t.Fatalf("probe %d: per-row %v vs batch %v", i, p, quant[i])
		}
	}
}

// TestExactForestRefusesQuant: exact-splitter thresholds are midpoints
// between training values, not bin edges, so compiling an exact forest
// against BinFrame edges must fail and leave the forest on its float
// walk with no predictor installed.
func TestExactForestRefusesQuant(t *testing.T) {
	x, y := quantData(1200, 9)
	f := fitQuantForest(t, x, y, tree.Best)
	if f.Quant() != nil {
		t.Fatal("exact fit must not auto-compile")
	}
	fr := ml.FrameOf(x)
	want := f.PredictProbaFrameRows(fr, nil)

	if err := f.CompileQuant(frame.BinFrame(fr, 0, nil).Edges()); err == nil {
		t.Fatal("exact forest compiled; its continuous-column midpoints are not bin edges")
	}
	if f.Quant() != nil {
		t.Fatal("failed CompileQuant left a predictor behind")
	}
	assertBitIdentical(t, "float walk after refusal", want, f.PredictProbaFrameRows(fr, nil))
}

// TestCompileErrors pins the refusal paths: an unfitted forest, a
// mismatched edge-set count, and edge sets that are not valid code maps
// (too many edges for a uint8 code, NaN, descending) even on a column no
// node tests. Equal neighbours are legal.
func TestCompileErrors(t *testing.T) {
	if _, err := Compile(New(Config{NumTrees: 3}), nil); err == nil {
		t.Fatal("compile of an unfitted forest must fail")
	}
	x, y := quantData(400, 3)
	f := fitQuantForest(t, x, y, tree.Hist)
	if _, err := Compile(f, make([][]float64, 2)); err == nil {
		t.Fatal("compile with a mismatched edge-set count must fail")
	}
	wide := make([]float64, frame.MaxBins)
	for i := range wide {
		wide[i] = float64(i)
	}
	for name, e := range map[string][]float64{
		"too many edges": wide,
		"NaN edge":       {1, math.NaN(), 3},
		"descending":     {1, 3, 2},
	} {
		edges := append([][]float64(nil), f.Quant().edges...)
		edges[2] = e // the constant column: never tested
		if _, err := Compile(f, edges); err == nil {
			t.Errorf("%s: compile succeeded", name)
		}
	}
	edges := append([][]float64(nil), f.Quant().edges...)
	edges[2] = []float64{1, 2, 2, 3}
	if _, err := Compile(f, edges); err != nil {
		t.Errorf("equal neighbouring edges refused: %v", err)
	}
}

// TestForestBatchPredictAllocations pins the zero-allocation contract of
// the caller-owned-buffer batch path: the float walk, the quantized walk
// at parallelism 1 (pooled code scratch), and the single-block serving
// regime at default parallelism must all allocate nothing per call.
func TestForestBatchPredictAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector; the verify.sh allocation lane runs this without -race")
	}
	x, y := quantData(600, 5) // 3 blocks
	f := fitQuantForest(t, x, y, tree.Hist)
	ref := *f
	ref.DropQuant()
	fr := ml.FrameOf(x)
	dst := make([]float64, fr.Rows())

	shard := ml.FrameOf(x[:32]) // one block: inline path at any parallelism
	shardDst := make([]float64, 32)

	cases := []struct {
		name string
		prep func()
		call func()
	}{
		{"float", func() {},
			func() { ref.PredictProbaFrameRowsInto(fr, nil, dst) }},
		{"quant-serial", func() { f.Quant().SetParallelism(1) },
			func() { f.PredictProbaFrameRowsInto(fr, nil, dst) }},
		{"quant-shard", func() { f.Quant().SetParallelism(0) },
			func() { f.PredictProbaFrameRowsInto(shard, nil, shardDst) }},
	}
	for _, tc := range cases {
		tc.prep()
		if n := testing.AllocsPerRun(50, tc.call); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}
}

// wideData draws d standard-normal columns that all carry part of the
// label's signal, so a hist forest ends up testing nearly every column.
func wideData(n, d int, seed int64) ([][]float64, []int) {
	r := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		row := make([]float64, d)
		s := 0.0
		for j := range row {
			row[j] = r.NormFloat64()
			s += row[j]
		}
		x[i] = row
		if s+3*r.NormFloat64() > 0 {
			y[i] = 1
		}
	}
	return x, y
}

// TestQuantWideForestPacks pins the forest shape offline-train runs: a
// hist forest testing 300+ columns — past what an 8-bit slot field holds
// — compiles packed and matches the float walk bit for bit on a frame and
// a row list over it, at 1, 4 and 8 workers.
// Past the packed word's limits (512 tested columns, 32 768 nodes per
// tree) the fit must keep the float walk and still match per-row
// PredictProba.
func TestQuantWideForestPacks(t *testing.T) {
	x, y := wideData(1500, 320, 1)
	f := New(Config{NumTrees: 24, MinSamplesLeaf: 3, Splitter: tree.Hist, Seed: 5})
	if err := f.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	q := f.Quant()
	if q == nil {
		t.Fatal("wide hist forest did not compile")
	}
	if q.NumSlots() < 300 {
		t.Fatalf("forest tests %d columns, want >= 300", q.NumSlots())
	}
	dense := ml.FrameOf(x)
	var rows []int
	for i := len(x) - 1; i >= 0; i -= 7 {
		rows = append(rows, i, i/2) // out of order, with repeats
	}
	want := floatProbs(f, dense, nil)
	wantRows := make([]float64, len(rows))
	for p, i := range rows {
		wantRows[p] = want[i]
	}
	assertBitIdentical(t, "float walk, row list", wantRows, floatProbs(f, dense, rows))
	for _, w := range []int{1, 4, 8} {
		q.SetParallelism(w)
		assertBitIdentical(t, fmt.Sprintf("dense, %d workers", w), want, f.PredictProbaFrameRows(dense, nil))
		assertBitIdentical(t, fmt.Sprintf("dense rows, %d workers", w), wantRows, f.PredictProbaFrameRows(dense, rows))
	}
	q.SetParallelism(0)

	noisy := func() ([][]float64, []int) {
		x, y := wideData(80000, 3, 3)
		r := rand.New(rand.NewSource(4))
		for i := range y {
			y[i] = r.Intn(2) // pure label noise: the tree grows to near-singleton leaves
		}
		return x, y
	}
	for _, tc := range []struct {
		name, refusal string
		data          func() ([][]float64, []int)
		cfg           Config
	}{
		{"past 512 slots", "tested columns", func() ([][]float64, []int) { return wideData(1500, 640, 2) },
			Config{NumTrees: 40, MinSamplesLeaf: 1, Splitter: tree.Hist, Seed: 6}},
		{"past 32768 nodes", "nodes", noisy,
			Config{NumTrees: 1, MinSamplesLeaf: 1, MaxFeatures: -2, Splitter: tree.Hist, Seed: 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x, y := tc.data()
			f := New(tc.cfg)
			if err := f.Fit(x, y); err != nil {
				t.Fatal(err)
			}
			if f.Quant() != nil {
				t.Fatalf("forest past the packed limits compiled (%d slots)", f.Quant().NumSlots())
			}
			fr := ml.FrameOf(x)
			_, err := Compile(f, frame.BinFrame(fr, 0, nil).Edges())
			if err == nil || !strings.Contains(err.Error(), tc.refusal) {
				t.Fatalf("compile error %v, want one naming %q", err, tc.refusal)
			}
			got := f.PredictProbaFrameRows(fr, nil)
			for i := 0; i < len(x); i += 97 {
				if p := f.PredictProba(x[i]); math.Float64bits(p) != math.Float64bits(got[i]) {
					t.Fatalf("row %d: per-row %v vs batch %v", i, p, got[i])
				}
			}
		})
	}
}
