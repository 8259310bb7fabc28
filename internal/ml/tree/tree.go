// Package tree implements CART decision trees (Breiman et al. 1984) for
// binary classification with sample weights, gini/entropy criteria and the
// best/random splitter options from the paper's Table 2 grid, plus a
// histogram splitter that trains on pre-quantized columns without any
// per-node sorting. The tree is the base learner for the random forest,
// AdaBoost and (via a regression variant in package boost) gradient
// boosting.
package tree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"

	"monitorless/internal/frame"
	"monitorless/internal/ml"
)

// Criterion selects the impurity measure.
type Criterion int

const (
	// Gini impurity: 2·p·(1−p) for binary labels.
	Gini Criterion = iota
	// Entropy (information gain): −p·log2(p) − (1−p)·log2(1−p).
	Entropy
)

// String implements fmt.Stringer.
func (c Criterion) String() string {
	switch c {
	case Gini:
		return "gini"
	case Entropy:
		return "entropy"
	default:
		return fmt.Sprintf("Criterion(%d)", int(c))
	}
}

// impurity computes the criterion value for a (weight, positive-weight)
// pair. The ratio is clamped to [0, 1]: exact-path sums can never leave
// that range (the clamp never fires there), but histogram-subtraction
// weights carry float cancellation noise that could otherwise push p
// epsilon-outside it and NaN the entropy.
func impurity(c Criterion, total, pos float64) float64 {
	if total <= 0 {
		return 0
	}
	p := pos / total
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	switch c {
	case Entropy:
		h := 0.0
		if p > 0 {
			h -= p * math.Log2(p)
		}
		if p < 1 {
			h -= (1 - p) * math.Log2(1-p)
		}
		return h
	default:
		return 2 * p * (1 - p)
	}
}

// maxUnitEntropy caps the sample count of the fits that read entropy from
// unitEntropy: a 900-s paper-scale training run is ~895 rows.
const maxUnitEntropy = 1024

// unitEntropy tabulates impurity(Entropy, a, b) at index a(a+1)/2 + b for
// every integer pair 0 ≤ b ≤ a ≤ maxUnitEntropy (525 825 entries, 4.2 MB),
// built once per process on first use. When every sample weight of an
// exact fit is exactly 1, each weight sum the splitter forms — node totals,
// running left sums and their right-hand differences — is an exact integer
// no larger than the sample count, so a lookup returns the very bits the
// call would compute.
var unitEntropy = sync.OnceValue(func() []float64 {
	h := make([]float64, (maxUnitEntropy+1)*(maxUnitEntropy+2)/2)
	for a := 0; a <= maxUnitEntropy; a++ {
		row := h[a*(a+1)/2:]
		for b := 0; b <= a; b++ {
			row[b] = impurity(Entropy, float64(a), float64(b))
		}
	}
	return h
})

// Splitter selects how candidate thresholds are generated.
type Splitter int

const (
	// Best scans every boundary between distinct sorted feature values.
	Best Splitter = iota
	// Random draws one uniform threshold per candidate feature
	// (scikit-learn's splitter="random", an axis in Table 2's AdaBoost grid).
	Random
	// Hist quantizes every column once into ≤256 bins and scans bin
	// boundaries of per-node (count, weight, positive-weight) histograms —
	// no per-node sorting, LightGBM-style. Approximate: thresholds land on
	// global quantile bin edges instead of per-node value midpoints.
	Hist
)

// String implements fmt.Stringer.
func (s Splitter) String() string {
	switch s {
	case Best:
		return "best"
	case Random:
		return "random"
	case Hist:
		return "hist"
	default:
		return fmt.Sprintf("Splitter(%d)", int(s))
	}
}

// ParseSplitter converts a flag/grid string to a Splitter. "exact" is an
// alias for "best" (the cmd flags name the paths exact vs hist).
func ParseSplitter(s string) (Splitter, error) {
	switch strings.ToLower(s) {
	case "best", "exact":
		return Best, nil
	case "random":
		return Random, nil
	case "hist", "histogram":
		return Hist, nil
	default:
		return Best, fmt.Errorf("tree: unknown splitter %q (want best, random or hist)", s)
	}
}

// Config holds the tree hyper-parameters. The zero value is a fully grown
// gini tree considering all features.
type Config struct {
	// MaxDepth limits tree depth; 0 means unlimited.
	MaxDepth int
	// MinSamplesSplit is the minimum weighted sample count to split a node.
	MinSamplesSplit int
	// MinSamplesLeaf is the minimum sample count in each child.
	MinSamplesLeaf int
	// Criterion selects gini or entropy.
	Criterion Criterion
	// Splitter selects best, random or histogram thresholds.
	Splitter Splitter
	// MaxFeatures is the number of features examined per split;
	// 0 means all, -1 means √d (the forest default).
	MaxFeatures int
	// Bins caps the per-column bin count for the Hist splitter;
	// 0 means 256. Ignored by the exact splitters.
	Bins int
	// Seed seeds the feature subsampling / random splitter RNG.
	Seed int64
}

// Tree is a fitted CART decision tree in a flattened struct-of-arrays
// layout: node i is (feature[i], threshold[i], left[i], right[i],
// prob[i]), with the int32 triple packed in one contiguous slab and the
// float64 pair in another so inference walks two cache streams instead of
// chasing 40-byte node structs. feature[i] < 0 marks a leaf.
type Tree struct {
	cfg         Config
	feature     []int32
	left        []int32
	right       []int32
	threshold   []float64
	prob        []float64 // P(y=1) among weighted training samples at the node
	nFeatures   int
	importances []float64
	fitted      bool
}

var _ ml.Classifier = (*Tree)(nil)
var _ ml.WeightedFitter = (*Tree)(nil)
var _ ml.FeatureImporter = (*Tree)(nil)
var _ ml.FrameFitter = (*Tree)(nil)

// New returns an unfitted tree with the given configuration.
func New(cfg Config) *Tree {
	if cfg.MinSamplesSplit < 2 {
		cfg.MinSamplesSplit = 2
	}
	if cfg.MinSamplesLeaf < 1 {
		cfg.MinSamplesLeaf = 1
	}
	return &Tree{cfg: cfg}
}

// appendLeaf adds a leaf node and returns its index.
func (t *Tree) appendLeaf(prob float64) int32 {
	i := int32(len(t.feature))
	t.feature = append(t.feature, -1)
	t.left = append(t.left, 0)
	t.right = append(t.right, 0)
	t.threshold = append(t.threshold, 0)
	t.prob = append(t.prob, prob)
	return i
}

// setSplit turns leaf i into an internal node.
func (t *Tree) setSplit(i int32, feat int, thr float64, left, right int32) {
	t.feature[i] = int32(feat)
	t.threshold[i] = thr
	t.left[i] = left
	t.right[i] = right
}

// compact repacks the grown node arrays into two contiguous slabs (one
// for the int32 triple, one for the float64 pair), shedding append
// over-allocation and giving inference a fixed memory layout.
func (t *Tree) compact() {
	n := len(t.feature)
	ints := make([]int32, 3*n)
	copy(ints[:n], t.feature)
	copy(ints[n:2*n], t.left)
	copy(ints[2*n:], t.right)
	t.feature = ints[:n:n]
	t.left = ints[n : 2*n : 2*n]
	t.right = ints[2*n : 3*n : 3*n]
	floats := make([]float64, 2*n)
	copy(floats[:n], t.threshold)
	copy(floats[n:], t.prob)
	t.threshold = floats[:n:n]
	t.prob = floats[n : 2*n : 2*n]
}

// Fit trains the tree with uniform sample weights. It is a thin adapter:
// the matrix is validated and transposed once, then fitting runs on the
// columnar path.
func (t *Tree) Fit(x [][]float64, y []int) error {
	return t.FitWeighted(x, y, nil)
}

// FitWeighted trains the tree. w may be nil for uniform weights.
func (t *Tree) FitWeighted(x [][]float64, y []int, w []float64) error {
	if _, err := ml.ValidateTrainingSet(x, y); err != nil {
		return err
	}
	return t.FitFrameSamples(ml.FrameOf(x), nil, y, w)
}

// FitFrame trains on the frame rows listed in rows (nil = all), with y
// holding one label per frame row (nil = fr.Labels()). This is the
// validated frame-boundary entry point.
func (t *Tree) FitFrame(fr *frame.Frame, y []int, rows []int) error {
	y, err := ml.ValidateFrame(fr, y, rows)
	if err != nil {
		return err
	}
	if rows == nil {
		return t.FitFrameSamples(fr, nil, y, nil)
	}
	sy := make([]int, len(rows))
	for p, i := range rows {
		sy[p] = y[i]
	}
	return t.FitFrameSamples(fr, rows, sy, nil)
}

// prepSamples normalizes the (smp, y, w) triple shared by the exact and
// histogram fit paths: smp nil becomes the identity over n rows, w nil
// becomes uniform, and the label/weight lengths are checked. It returns
// the total weight.
func prepSamples(n int, smp []int, y []int, w []float64) ([]int, []float64, float64, error) {
	if smp == nil {
		smp = identity(n)
	}
	if len(smp) == 0 {
		return nil, nil, 0, ml.ErrNoData
	}
	if len(y) != len(smp) {
		return nil, nil, 0, fmt.Errorf("tree: %d labels for %d samples", len(y), len(smp))
	}
	if w == nil {
		w = make([]float64, len(smp))
		for i := range w {
			w[i] = 1
		}
	} else if len(w) != len(smp) {
		return nil, nil, 0, fmt.Errorf("tree: %d weights for %d samples", len(w), len(smp))
	}
	totalWeight := 0.0
	for _, wi := range w {
		totalWeight += wi
	}
	if totalWeight <= 0 {
		return nil, nil, 0, fmt.Errorf("tree: total sample weight must be positive")
	}
	return smp, w, totalWeight, nil
}

// finishFit normalizes importances and compacts the node arrays.
func (t *Tree) finishFit() {
	sum := 0.0
	for _, v := range t.importances {
		sum += v
	}
	if sum > 0 {
		for i := range t.importances {
			t.importances[i] /= sum
		}
	}
	t.compact()
	t.fitted = true
}

// FitFrameSamples trains on the frame rows listed in smp — duplicates
// allowed, which is how the forest's bootstrap resampling avoids copying
// feature rows. y and w are per-sample (aligned with smp, len(smp)
// entries); smp nil means every frame row once, w nil means uniform.
// The caller is responsible for boundary validation (ValidateFrame or
// ValidateTrainingSet); this path never re-scans for NaN/Inf. With
// Splitter == Hist the frame is quantized here (edges from the sampled
// rows); callers fitting many trees on one frame should bin once with
// frame.BinFrame and use FitBinnedSamples instead — or, for the exact
// splitters, rank once with RankFrame and use FitRankedSamples.
func (t *Tree) FitFrameSamples(fr *frame.Frame, smp []int, y []int, w []float64) error {
	if fr == nil || fr.Rows() == 0 || fr.NumCols() == 0 {
		return ml.ErrNoData
	}
	if t.cfg.Splitter == Hist {
		return t.FitBinnedSamples(frame.BinFrame(fr, t.cfg.Bins, smp), smp, y, w)
	}
	return t.FitRankedSamples(fr, RankFrame(fr, smp, t.cfg), smp, y, w)
}

// FitRankedSamples is FitFrameSamples for the exact splitters over a
// dense, non-empty frame with rk = RankFrame(fr, rows, cfg), rows covering
// every row smp names: an ensemble ranks its training rows once and shares
// rk read-only across its trees. A nil rk selects the per-node sort.
func (t *Tree) FitRankedSamples(fr *frame.Frame, rk *Ranks, smp []int, y []int, w []float64) error {
	b, err := t.newBuilder(fr, rk, smp, y, w)
	if err != nil {
		return err
	}
	b.build(0, len(b.idx), 0)
	t.finishFit()
	return nil
}

// newBuilder validates the sample triple, resets the tree and lays out
// the builder arena for one exact-splitter fit.
func (t *Tree) newBuilder(fr *frame.Frame, rk *Ranks, smp []int, y []int, w []float64) (*builder, error) {
	smp, w, totalWeight, err := prepSamples(fr.Rows(), smp, y, w)
	if err != nil {
		return nil, err
	}
	n, d := len(smp), fr.NumCols()
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("tree: %d samples exceed the exact splitter's int32 index space", n)
	}
	t.startFit(d)
	b := &builder{
		tree:        t,
		cols:        fr.Cols(nil),
		smp:         smp,
		y:           y,
		w:           w,
		rng:         rand.New(rand.NewSource(t.cfg.Seed)),
		totalWeight: totalWeight,
		idx:         make([]int32, n),
		part:        make([]int32, n),
		left:        make([]uint8, n),
	}
	for i := range b.idx {
		b.idx[i] = int32(i)
	}
	if t.cfg.Criterion == Entropy && n <= maxUnitEntropy && unitWeights(w) {
		b.entropy = unitEntropy()
	}
	if rk != nil {
		b.sorted = rk.sortSamples(smp)
		b.nodeOrder = func(lo, hi, f int) []int32 { return b.sorted[f*n+lo : f*n+hi] }
	} else {
		b.order = make([]int32, n)
		b.keys = make([]sortKey, n)
		b.nodeOrder = b.sortedOrder
	}
	return b, nil
}

// unitWeights reports whether every weight is exactly 1.
func unitWeights(w []float64) bool {
	for _, v := range w {
		if v != 1 {
			return false
		}
	}
	return true
}

// startFit resets the node arrays for a fresh fit over d features.
func (t *Tree) startFit(d int) {
	t.nFeatures = d
	t.feature = t.feature[:0]
	t.left = t.left[:0]
	t.right = t.right[:0]
	t.threshold = t.threshold[:0]
	t.prob = t.prob[:0]
	t.importances = make([]float64, d)
	t.fitted = false
}

// builder carries the shared fitting state of the exact splitters. Split
// finding scans contiguous columns: the value of sample i under feature f
// is cols[f][smp[i]], one slice lookup instead of a row-pointer chase.
// A node is a range [lo, hi) of the root sample list idx, which every
// accepted split partitions stably in place, so a node's samples are in
// ascending index order. The scan wants them in (value, index) order
// under each candidate feature; nodeOrder supplies that one of two ways,
// chosen per fit from the tree's own configuration (see RankFrame):
//
//   - every feature offered at every node: sorted holds, per feature, the
//     whole tree's samples in (value, index) order, built at the root from
//     the shared Ranks, and every accepted split stably partitions each
//     feature's [lo, hi) on the same go-left flags as idx. A stable
//     partition of an ordered list is ordered: the range is its own sort.
//   - features subsampled per node: sortedOrder gathers the node's
//     (value, index) pairs for each of the few candidates and sorts them.
//
// (value, index) is a total order, so both yield the same permutation and
// the scan's running sums — hence the tree — are bit-identical. Growing
// the tree allocates nothing beyond the node arrays themselves.
//
// Entropy fits with unit weights and at most maxUnitEntropy samples read
// the criterion from the unitEntropy table instead of computing it.
type builder struct {
	tree        *Tree
	cols        [][]float64 // full backing columns, cols[f][row]
	smp         []int       // sample index -> backing row
	y           []int       // per-sample labels
	w           []float64   // per-sample weights
	rng         *rand.Rand
	totalWeight float64
	idx         []int32 // root sample list; nodes are subranges
	nodeOrder   func(lo, hi, f int) []int32
	sorted      []int32   // presorted mode: feature f's order is sorted[f*n:(f+1)*n]
	order       []int32   // per-node sort scratch (subsampled mode)
	keys        []sortKey // per-node (value, index) pairs (subsampled mode)
	entropy     []float64 // unitEntropy when it applies to this fit, else nil
	part        []int32   // right-hand scratch of the stable partition
	left        []uint8   // per-sample go-left flag of the split being applied
	allFeats    []int     // identity feature list, built lazily when k == d
}

func (b *builder) impurity(total, pos float64) float64 {
	if b.entropy == nil {
		return impurity(b.tree.cfg.Criterion, total, pos)
	}
	a := int(total)
	return b.entropy[a*(a+1)/2+int(pos)]
}

// build grows the subtree over idx[lo:hi] and returns its node index.
func (b *builder) build(lo, hi, depth int) int32 {
	t := b.tree
	idx := b.idx[lo:hi]
	var total, pos float64
	for _, i := range idx {
		total += b.w[i]
		if b.y[i] == 1 {
			pos += b.w[i]
		}
	}
	prob := 0.0
	if total > 0 {
		prob = pos / total
	}

	nodeIdx := t.appendLeaf(prob)

	if len(idx) < t.cfg.MinSamplesSplit ||
		(t.cfg.MaxDepth > 0 && depth >= t.cfg.MaxDepth) ||
		prob == 0 || prob == 1 {
		return nodeIdx
	}

	feat, thr, gain := b.bestSplit(lo, hi, total, pos)
	if feat < 0 {
		return nodeIdx
	}

	col := b.cols[feat]
	for _, i := range idx {
		b.left[i] = 0
		if col[b.smp[i]] <= thr {
			b.left[i] = 1
		}
	}
	mid := lo + b.partition(idx)
	if mid-lo < t.cfg.MinSamplesLeaf || hi-mid < t.cfg.MinSamplesLeaf {
		return nodeIdx
	}
	if b.sorted != nil {
		for f := range b.cols {
			b.partition(b.nodeOrder(lo, hi, f))
		}
	}

	t.importances[feat] += total / b.totalWeight * gain

	leftIdx := b.build(lo, mid, depth+1)
	rightIdx := b.build(mid, hi, depth+1)
	t.setSplit(nodeIdx, feat, thr, leftIdx, rightIdx)
	return nodeIdx
}

// partition moves the samples of list flagged go-left to its front and
// returns how many there are, keeping both sides in their original
// relative order. Branch-free: every sample is written to both the
// prefix and the right-hand scratch, and only one cursor advances.
func (b *builder) partition(list []int32) int {
	scratch := b.part[:len(list)]
	k, r := 0, 0
	for _, i := range list {
		l := int(b.left[i])
		list[k] = i
		scratch[r] = i
		k += l
		r += 1 - l
	}
	copy(list[k:], scratch[:r])
	return k
}

// bestSplit searches the candidate features for the best (feature,
// threshold) pair; returns feature -1 when no split improves impurity.
func (b *builder) bestSplit(lo, hi int, total, pos float64) (int, float64, float64) {
	t := b.tree
	features := b.sampleFeatures()
	parentImp := b.impurity(total, pos)

	bestFeat, bestThr, bestGain := -1, 0.0, 1e-12
	for _, f := range features {
		var thr, gain float64
		var ok bool
		if t.cfg.Splitter == Random {
			thr, gain, ok = b.randomSplit(b.idx[lo:hi], f, total, pos, parentImp)
		} else {
			thr, gain, ok = b.scanSplits(b.nodeOrder(lo, hi, f), f, total, pos, parentImp)
		}
		if ok && gain > bestGain {
			bestFeat, bestThr, bestGain = f, thr, gain
		}
	}
	if bestFeat < 0 {
		return -1, 0, 0
	}
	return bestFeat, bestThr, bestGain
}

// resolveMaxFeatures maps the MaxFeatures config (0 = all, -1 = √d) to a
// concrete per-node candidate count.
func resolveMaxFeatures(maxFeatures, d int) int {
	k := maxFeatures
	switch {
	case k == 0 || k > d:
		k = d
	case k < 0:
		k = int(math.Sqrt(float64(d)))
		if k < 1 {
			k = 1
		}
	}
	return k
}

// sampleFeatures returns the node's candidate feature indices. The
// full-feature identity list is part of the builder arena (built once);
// subsampling consumes the rng per node, exactly as before.
func (b *builder) sampleFeatures() []int {
	d := b.tree.nFeatures
	if resolveMaxFeatures(b.tree.cfg.MaxFeatures, d) >= d {
		if b.allFeats == nil {
			b.allFeats = identity(d)
		}
		return b.allFeats
	}
	return sampleFeatures(b.rng, d, b.tree.cfg.MaxFeatures)
}

// identity returns 0, 1, …, n-1.
func identity(n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

func sampleFeatures(rng *rand.Rand, d, maxFeatures int) []int {
	k := resolveMaxFeatures(maxFeatures, d)
	if k >= d {
		return identity(d)
	}
	perm := rng.Perm(d)
	return perm[:k]
}

// sortKey is one sample of a node under a candidate feature.
type sortKey struct {
	v float64
	i int32
}

// cmpSortKey orders by value, then sample index. −0 and +0 compare equal
// (and fall through to the index), as they do in the scan.
func cmpSortKey(x, y sortKey) int {
	switch {
	case x.v < y.v:
		return -1
	case x.v > y.v:
		return 1
	}
	return int(x.i) - int(y.i)
}

// sortedOrder is nodeOrder when features are subsampled: the node's
// samples sorted by (value under f, sample index) in the order scratch.
// The values are gathered next to their indices first, so the sort
// compares in place instead of chasing smp and col per comparison.
func (b *builder) sortedOrder(lo, hi, f int) []int32 {
	col, smp := b.cols[f], b.smp
	keys := b.keys[:hi-lo]
	for p, i := range b.idx[lo:hi] {
		keys[p] = sortKey{col[smp[i]], i}
	}
	slices.SortFunc(keys, cmpSortKey)
	order := b.order[:hi-lo]
	for p, k := range keys {
		order[p] = k.i
	}
	return order
}

// scanSplits scans all boundaries of order, the node's samples in
// (value under f, sample index) order. Ties are broken by sample index,
// making that a total order: the permutation — and therefore the scan's
// running sums and the fitted tree — is a pure function of the training
// set, never of how a sort algorithm happens to permute equal keys.
func (b *builder) scanSplits(order []int32, f int, total, pos, parentImp float64) (float64, float64, bool) {
	col, smp := b.cols[f], b.smp
	minLeaf := b.tree.cfg.MinSamplesLeaf
	var leftW, leftPos float64
	bestGain, bestThr := 0.0, 0.0
	found := false
	for i := 0; i < len(order)-1; i++ {
		s := order[i]
		leftW += b.w[s]
		if b.y[s] == 1 {
			leftPos += b.w[s]
		}
		v, next := col[smp[s]], col[smp[order[i+1]]]
		if v == next {
			continue
		}
		if i+1 < minLeaf || len(order)-i-1 < minLeaf {
			continue
		}
		rightW := total - leftW
		rightPos := pos - leftPos
		imp := (leftW*b.impurity(leftW, leftPos) + rightW*b.impurity(rightW, rightPos)) / total
		gain := parentImp - imp
		if gain > bestGain {
			bestGain = gain
			bestThr = v + (next-v)/2
			found = true
		}
	}
	return bestThr, bestGain, found
}

// randomSplit draws a single uniform threshold between the observed min and
// max of feature f (scikit-learn's ExtraTree-style random splitter).
func (b *builder) randomSplit(idx []int32, f int, total, pos, parentImp float64) (float64, float64, bool) {
	col, smp := b.cols[f], b.smp
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, i := range idx {
		v := col[smp[i]]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi <= lo {
		return 0, 0, false
	}
	thr := lo + b.rng.Float64()*(hi-lo)
	var leftW, leftPos float64
	var nLeft int
	for _, i := range idx {
		if col[smp[i]] <= thr {
			nLeft++
			leftW += b.w[i]
			if b.y[i] == 1 {
				leftPos += b.w[i]
			}
		}
	}
	minLeaf := b.tree.cfg.MinSamplesLeaf
	if nLeft < minLeaf || len(idx)-nLeft < minLeaf {
		return 0, 0, false
	}
	rightW := total - leftW
	rightPos := pos - leftPos
	imp := (leftW*b.impurity(leftW, leftPos) + rightW*b.impurity(rightW, rightPos)) / total
	gain := parentImp - imp
	if gain <= 0 {
		return 0, 0, false
	}
	return thr, gain, true
}

// PredictProba returns P(y=1 | x).
func (t *Tree) PredictProba(x []float64) float64 {
	if !t.fitted {
		return 0.5
	}
	i := int32(0)
	for {
		f := t.feature[i]
		if f < 0 {
			return t.prob[i]
		}
		if x[f] <= t.threshold[i] {
			i = t.left[i]
		} else {
			i = t.right[i]
		}
	}
}

// AccumProba is the batch float walk: it adds the leaf probability of
// len(acc) rows of the column-major batch cols (cols[j][i] = feature j of
// row i) into acc, acc[p] taking row rows[p], or row p when rows is nil.
// The adds land in row order, so an ensemble summing trees in a fixed
// order performs bit-identical arithmetic to a per-row PredictProba loop
// over the same trees.
func (t *Tree) AccumProba(cols [][]float64, rows []int, acc []float64) {
	if !t.fitted {
		for p := range acc {
			acc[p] += 0.5
		}
		return
	}
	feature, left, right, threshold, prob := t.feature, t.left, t.right, t.threshold, t.prob
	for p := range acc {
		i := p
		if rows != nil {
			i = rows[p]
		}
		k := int32(0)
		for {
			f := feature[k]
			if f < 0 {
				acc[p] += prob[k]
				break
			}
			if cols[f][i] <= threshold[k] {
				k = left[k]
			} else {
				k = right[k]
			}
		}
	}
}

// Predict returns the majority class at the reached leaf.
func (t *Tree) Predict(x []float64) int {
	if t.PredictProba(x) >= 0.5 {
		return 1
	}
	return 0
}

// FeatureImportances returns normalized impurity-decrease importances.
func (t *Tree) FeatureImportances() []float64 {
	out := make([]float64, len(t.importances))
	copy(out, t.importances)
	return out
}

// NumFeatures reports the row width the fitted tree reads.
func (t *Tree) NumFeatures() int { return t.nFeatures }

// Slabs exposes the fitted tree's flattened node arrays read-only:
// node i is (feature[i], threshold[i], left[i], right[i], prob[i]) and
// feature[i] < 0 marks a leaf (prob[i] is its P(y=1)). The slices alias
// the tree's compacted slabs and must not be mutated — forest.Compile
// reads them to lower the tree into its packed form.
func (t *Tree) Slabs() (feature, left, right []int32, threshold, prob []float64) {
	return t.feature, t.left, t.right, t.threshold, t.prob
}
