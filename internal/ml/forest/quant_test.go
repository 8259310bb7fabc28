package forest

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"monitorless/internal/frame"
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
	if err := f.FitFrame(frameOf(x), y, nil); err != nil {
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
	if q.NumSlots() >= frameOf(x).NumCols() {
		t.Fatalf("slot count %d not below column count %d (constant column got a slot)",
			q.NumSlots(), frameOf(x).NumCols())
	}
}

// TestQuantBitIdentityDense: the compiled path must reproduce the float
// batch walk bit for bit over a dense frame — full-frame, a scattered
// row subset, and against the per-row PredictProba reference.
func TestQuantBitIdentityDense(t *testing.T) {
	x, y := quantData(1500, 5)
	f := fitQuantForest(t, x, y, tree.Hist)
	fr := frameOf(x)

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

// TestQuantWorkerCountInvariance: disjoint per-task output ranges and
// per-row tree-order accumulation make the result bit-identical at any
// task-level parallelism.
func TestQuantWorkerCountInvariance(t *testing.T) {
	x, y := quantData(2100, 7) // 9 tasks of 256 rows
	f := fitQuantForest(t, x, y, tree.Hist)
	fr := frameOf(x)
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

// thresholdsOf returns each column's distinct thresholds over every
// node of the forest, ascending (nil for a column no node tests).
func thresholdsOf(f *Forest) [][]float64 {
	seen := make([]map[float64]bool, f.nFeatures)
	out := make([][]float64, f.nFeatures)
	for _, tr := range f.trees {
		feat, _, _, thr, _ := tr.Slabs()
		for i, j := range feat {
			if j < 0 {
				continue
			}
			if seen[j] == nil {
				seen[j] = map[float64]bool{}
			}
			if !seen[j][thr[i]] {
				seen[j][thr[i]] = true
				out[j] = append(out[j], thr[i])
			}
		}
	}
	for _, th := range out {
		sort.Float64s(th)
	}
	return out
}

// edgeProbes builds the inputs where an order-key compare could disagree
// with the float compare, each written into copies of two base rows:
// every threshold the forest tests and one ulp on either side of it, ±0,
// ±Inf, NaN of either sign (a negative one with a payload), ± the
// smallest subnormal, ±MaxFloat64, and values outside the training range.
func edgeProbes(f *Forest, base [][]float64) [][]float64 {
	var probes [][]float64
	add := func(j int, v float64) {
		for _, b := range base {
			row := append([]float64(nil), b...)
			row[j] = v
			probes = append(probes, row)
		}
	}
	for j, th := range thresholdsOf(f) {
		for _, v := range th {
			add(j, v)
			add(j, math.Nextafter(v, math.Inf(-1)))
			add(j, math.Nextafter(v, math.Inf(1)))
		}
	}
	specials := []float64{
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xfff8000000000001),
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 1e300, -1e300,
	}
	for j := 0; j < f.nFeatures; j++ {
		for _, v := range specials {
			add(j, v)
		}
	}
	return probes
}

// TestQuantPredictEdgeValues runs a hist forest's packed walk over the
// edgeProbes inputs: every one must decide identically to the float
// walk. A planted forest then tests ±0 against −0 thresholds: a sign
// column trained to split at its one edge, 0, with every such threshold
// re-signed to −0 (equal as a float, a different bit pattern), which
// holds the key's −0 fold to the float compare on both sides.
func TestQuantPredictEdgeValues(t *testing.T) {
	x, y := quantData(1500, 5)
	for i, row := range x {
		s := -1.0 // column 6: the label's sign, 10% flipped
		if (y[i] == 1) != (i%10 == 0) {
			s = 1
		}
		x[i] = append(row, s)
	}
	f := fitQuantForest(t, x, y, tree.Hist)
	if th := thresholdsOf(f)[6]; len(th) != 1 || th[0] != 0 {
		t.Fatalf("sign column thresholds %v, want [0]", th)
	}

	probes := edgeProbes(f, x[:2])
	fr := frameOf(probes)
	quant := f.PredictProbaFrameRows(fr, nil)
	assertBitIdentical(t, "edge probes", floatProbs(f, fr, nil), quant)
	for i, row := range probes {
		if p := f.PredictProba(row); math.Float64bits(p) != math.Float64bits(quant[i]) {
			t.Fatalf("probe %d: per-row %v vs batch %v", i, p, quant[i])
		}
	}

	planted := plantNegZero(t, f)
	var zeros [][]float64
	for _, row := range x[:200] {
		for _, v := range []float64{0, math.Copysign(0, -1)} {
			z := append([]float64(nil), row...)
			z[6] = v
			zeros = append(zeros, z)
		}
	}
	zfr := frameOf(zeros)
	assertBitIdentical(t, "±0 against −0 thresholds", floatProbs(planted, zfr, nil), planted.PredictProbaFrameRows(zfr, nil))
}

// treeWireMirror has the field names of tree's gob wire form, so a test
// can rewrite a fitted tree's thresholds through its own codec.
type treeWireMirror struct {
	Cfg         tree.Config
	Features    []int32
	Left        []int32
	Right       []int32
	Thresholds  []float64
	Probs       []float64
	NFeatures   int
	Importances []float64
	Fitted      bool
}

// plantNegZero returns a compiled copy of f whose zero thresholds are all
// −0, round-tripping each tree through its gob form.
func plantNegZero(t *testing.T, f *Forest) *Forest {
	t.Helper()
	p := *f
	p.trees = make([]*tree.Tree, len(f.trees))
	n := 0
	for i, tr := range f.trees {
		b, err := tr.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		var w treeWireMirror
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
			t.Fatal(err)
		}
		for k, thr := range w.Thresholds {
			if w.Features[k] >= 0 && thr == 0 {
				w.Thresholds[k] = math.Copysign(0, -1)
				n++
			}
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			t.Fatal(err)
		}
		p.trees[i] = new(tree.Tree)
		if err := p.trees[i].GobDecode(buf.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	if n == 0 {
		t.Fatal("no node splits at 0: nothing planted")
	}
	var err error
	if p.quant, err = Compile(&p); err != nil {
		t.Fatal(err)
	}
	return &p
}

// TestExactForestCompiles: an exact-splitter forest compiles from its
// own midpoint thresholds at fit, and its packed walk matches the float
// walk of a DropQuant copy bit for bit on the edge probes — every
// threshold and ±1 ulp around it, ±0, NaN of both signs, ±Inf — at 1, 4
// and 8 workers.
func TestExactForestCompiles(t *testing.T) {
	x, y := quantData(1200, 9)
	f := fitQuantForest(t, x, y, tree.Best)
	q := f.Quant()
	if q == nil {
		t.Fatal("exact fit did not compile")
	}
	probes := edgeProbes(f, x[:2])
	fr := frameOf(probes)
	want := floatProbs(f, fr, nil)
	for i, row := range probes {
		if p := f.PredictProba(row); math.Float64bits(p) != math.Float64bits(want[i]) {
			t.Fatalf("probe %d: per-row %v vs float batch %v", i, p, want[i])
		}
	}
	for _, w := range []int{1, 4, 8} {
		q.SetParallelism(w)
		assertBitIdentical(t, fmt.Sprintf("edge probes, %d workers", w), want, f.PredictProbaFrameRows(fr, nil))
	}
	q.SetParallelism(0)
}

// TestCompileErrors pins the refusal of a forest with nothing to compile;
// the packed word's limits are TestQuantWideForestPacks' subtests.
func TestCompileErrors(t *testing.T) {
	if _, err := Compile(nil); err == nil {
		t.Fatal("compile of a nil forest must fail")
	}
	if _, err := Compile(New(Config{NumTrees: 3})); err == nil {
		t.Fatal("compile of an unfitted forest must fail")
	}
}

// TestForestBatchPredictAllocations pins the zero-allocation contract of
// the caller-owned-buffer batch path: the float walk, the quantized walk
// at parallelism 1 (pooled key scratch), and the single-task serving
// regime at default parallelism must all allocate nothing per call.
func TestForestBatchPredictAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector; the verify.sh allocation lane runs this without -race")
	}
	x, y := quantData(600, 5) // 3 tasks
	f := fitQuantForest(t, x, y, tree.Hist)
	ref := *f
	ref.DropQuant()
	fr := frameOf(x)
	dst := make([]float64, fr.Rows())

	shard := frameOf(x[:32]) // one task: inline path at any parallelism
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
	if err := f.FitFrame(frameOf(x), y, nil); err != nil {
		t.Fatal(err)
	}
	q := f.Quant()
	if q == nil {
		t.Fatal("wide hist forest did not compile")
	}
	if q.NumSlots() < 300 {
		t.Fatalf("forest tests %d columns, want >= 300", q.NumSlots())
	}
	dense := frameOf(x)
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
			if err := f.FitFrame(frameOf(x), y, nil); err != nil {
				t.Fatal(err)
			}
			if f.Quant() != nil {
				t.Fatalf("forest past the packed limits compiled (%d slots)", f.Quant().NumSlots())
			}
			fr := frameOf(x)
			_, err := Compile(f)
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
