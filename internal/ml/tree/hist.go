package tree

import (
	"math/rand"

	"monitorless/internal/frame"
	"monitorless/internal/ml"
)

// FitBinnedSamples trains with the histogram splitter on pre-quantized
// columns. smp/y/w follow the FitFrameSamples contract (smp indexes
// bn's rows, duplicates allowed, nil smp = every row, nil w = uniform).
// Callers fitting an ensemble on one training set should build bn once
// with frame.BinFrame and share it across trees — quantization is the
// only O(n log n) step left and it happens exactly once.
//
// The grower is serial and byte-deterministic: histograms accumulate in
// sample order, features are scanned in sampled order, and ties resolve
// first-wins in (feature, bin) order — re-fitting the same inputs yields
// a gob-identical tree at any GOMAXPROCS.
func (t *Tree) FitBinnedSamples(bn *frame.Binned, smp []int, y []int, w []float64) error {
	if bn == nil || bn.Rows() == 0 || bn.NumCols() == 0 {
		return ml.ErrNoData
	}
	smp, w, totalWeight, err := prepSamples(bn.Rows(), smp, y, w)
	if err != nil {
		return err
	}
	d := bn.NumCols()
	t.startFit(d)
	n := len(smp)
	hb := &histBuilder{
		tree:        t,
		bn:          bn,
		smp:         smp,
		y:           y,
		w:           w,
		rng:         rand.New(rand.NewSource(t.cfg.Seed)),
		totalWeight: totalWeight,
		nBins:       bn.MaxNumBins(),
		fullFeat:    resolveMaxFeatures(t.cfg.MaxFeatures, d) >= d,
		part:        make([]int, 0, n),
	}
	if !hb.fullFeat {
		// Feature-subsampled mode accumulates one feature at a time into
		// this single-column histogram.
		hb.cnt1 = make([]int, hb.nBins)
		hb.w1 = make([]float64, hb.nBins)
		hb.pos1 = make([]float64, hb.nBins)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var root *nodeHist
	if hb.fullFeat {
		root = hb.alloc()
		hb.accumAll(root, idx)
	}
	hb.build(idx, 0, root)
	t.finishFit()
	return nil
}

// nodeHist holds one node's per-(feature, bin) statistics, flattened as
// [f*nBins+b]: sample count (exact, drives MinSamplesLeaf), total weight
// and positive-class weight (drive impurity).
type nodeHist struct {
	cnt []int
	w   []float64
	pos []float64
}

// histBuilder grows a tree over binned columns. In full-feature mode
// (resolved MaxFeatures == d — AdaBoost base trees, standalone trees) it
// keeps a complete per-node histogram and uses the parent-minus-sibling
// subtraction trick: only the smaller child is ever accumulated from
// samples, the larger child's histogram is derived by subtracting it
// from the parent's buffer in place. A free-list bounds live buffers to
// O(depth). In feature-subsampled mode (forest's √d) the sampled feature
// sets differ per node, so subtraction does not apply; each candidate
// feature is accumulated directly into a single-column scratch — still
// O(n) per feature with no sorting.
type histBuilder struct {
	tree        *Tree
	bn          *frame.Binned
	smp         []int
	y           []int
	w           []float64
	rng         *rand.Rand
	totalWeight float64
	nBins       int
	fullFeat    bool
	part        []int // in-place partition scratch, shared across nodes

	cnt1 []int // single-feature scratch (subsampled mode)
	w1   []float64
	pos1 []float64

	pool []*nodeHist // free-list of full histograms (full-feature mode)
}

// alloc returns a zeroed full histogram, reusing a freed one if possible.
func (hb *histBuilder) alloc() *nodeHist {
	if n := len(hb.pool); n > 0 {
		h := hb.pool[n-1]
		hb.pool = hb.pool[:n-1]
		return h
	}
	size := hb.tree.nFeatures * hb.nBins
	return &nodeHist{
		cnt: make([]int, size),
		w:   make([]float64, size),
		pos: make([]float64, size),
	}
}

// free returns a histogram to the pool (nil-safe).
func (hb *histBuilder) free(h *nodeHist) {
	if h != nil {
		hb.pool = append(hb.pool, h)
	}
}

// accumAll zeroes h and accumulates every feature's histogram over idx,
// one contiguous code column at a time, in sample order.
func (hb *histBuilder) accumAll(h *nodeHist, idx []int) {
	for i := range h.cnt {
		h.cnt[i] = 0
		h.w[i] = 0
		h.pos[i] = 0
	}
	for f := 0; f < hb.tree.nFeatures; f++ {
		codes := hb.bn.ColCodes(f)
		base := f * hb.nBins
		cnt, w, pos := h.cnt[base:base+hb.nBins], h.w[base:base+hb.nBins], h.pos[base:base+hb.nBins]
		for _, i := range idx {
			c := codes[hb.smp[i]]
			cnt[c]++
			wi := hb.w[i]
			w[c] += wi
			if hb.y[i] == 1 {
				pos[c] += wi
			}
		}
	}
}

// subtract removes hs from h in place (h becomes the sibling histogram).
func (h *nodeHist) subtract(hs *nodeHist) {
	for i := range h.cnt {
		h.cnt[i] -= hs.cnt[i]
		h.w[i] -= hs.w[i]
		h.pos[i] -= hs.pos[i]
	}
}

// build grows the subtree over idx (a subrange of the root index buffer,
// partitioned in place like the exact builder) and returns its node
// index. h is this node's full histogram in full-feature mode, nil in
// feature-subsampled mode; build owns h and frees it before returning.
func (hb *histBuilder) build(idx []int, depth int, h *nodeHist) int32 {
	t := hb.tree
	var total, pos float64
	for _, i := range idx {
		total += hb.w[i]
		if hb.y[i] == 1 {
			pos += hb.w[i]
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
		hb.free(h)
		return nodeIdx
	}

	feat, bin, gain := hb.bestSplit(idx, total, pos, h)
	if feat < 0 {
		hb.free(h)
		return nodeIdx
	}
	thr := hb.bn.Edge(feat, bin)

	left, right := hb.partition(idx, feat, bin)
	t.importances[feat] += total / hb.totalWeight * gain

	// Derive the child histograms before recursing: accumulate only the
	// smaller side, subtract it from the parent's buffer for the larger.
	var hl, hr *nodeHist
	if h != nil {
		small := left
		if len(right) < len(left) {
			small = right
		}
		hs := hb.alloc()
		hb.accumAll(hs, small)
		h.subtract(hs)
		if len(right) < len(left) {
			hl, hr = h, hs
		} else {
			hl, hr = hs, h
		}
	}
	leftIdx := hb.build(left, depth+1, hl)
	rightIdx := hb.build(right, depth+1, hr)
	t.setSplit(nodeIdx, feat, thr, leftIdx, rightIdx)
	return nodeIdx
}

// partition splits idx in place around "code <= bin" under feat, keeping
// both sides in original relative order (same scheme as the exact
// builder's partition). Because codes and raw values bin identically —
// code(v) <= bin ⟺ v <= Edge(feat, bin) — the training partition matches
// what inference on raw values will do at this node.
func (hb *histBuilder) partition(idx []int, feat, bin int) (left, right []int) {
	codes := hb.bn.ColCodes(feat)
	b := uint8(bin)
	scratch := hb.part[:0]
	k := 0
	for _, i := range idx {
		if codes[hb.smp[i]] <= b {
			idx[k] = i
			k++
		} else {
			scratch = append(scratch, i)
		}
	}
	hb.part = scratch
	copy(idx[k:], scratch)
	return idx[:k], idx[k:]
}

// bestSplit scans the candidate features' bin boundaries and returns the
// best (feature, bin) pair, or feature -1 when no boundary improves
// impurity. Sample counts in the histogram are exact, so MinSamplesLeaf
// is enforced here and needs no re-check after partitioning.
func (hb *histBuilder) bestSplit(idx []int, total, pos float64, h *nodeHist) (int, int, float64) {
	t := hb.tree
	crit := t.cfg.Criterion
	parentImp := impurity(crit, total, pos)
	minLeaf := t.cfg.MinSamplesLeaf
	n := len(idx)

	var features []int
	if hb.fullFeat {
		features = nil // scan all features in order below
	} else {
		features = sampleFeatures(hb.rng, t.nFeatures, t.cfg.MaxFeatures)
	}

	bestFeat, bestBin, bestGain := -1, 0, 1e-12
	scan := func(f int, cnt []int, w, ps []float64, nb int) {
		leftC := 0
		var leftW, leftPos float64
		for b := 0; b < nb-1; b++ {
			c := cnt[b]
			leftC += c
			leftW += w[b]
			leftPos += ps[b]
			if c == 0 {
				// No sample in this bin: the boundary after it is the
				// same cut as the previous one, already evaluated.
				continue
			}
			if leftC < minLeaf || n-leftC < minLeaf {
				continue
			}
			rightW := total - leftW
			rightPos := pos - leftPos
			imp := (leftW*impurity(crit, leftW, leftPos) + rightW*impurity(crit, rightW, rightPos)) / total
			gain := parentImp - imp
			if gain > bestGain {
				bestFeat, bestBin, bestGain = f, b, gain
			}
		}
	}

	if hb.fullFeat {
		for f := 0; f < t.nFeatures; f++ {
			nb := hb.bn.NumBins(f)
			base := f * hb.nBins
			scan(f, h.cnt[base:base+nb], h.w[base:base+nb], h.pos[base:base+nb], nb)
		}
	} else {
		for _, f := range features {
			nb := hb.bn.NumBins(f)
			hb.accumOne(f, idx, nb)
			scan(f, hb.cnt1[:nb], hb.w1[:nb], hb.pos1[:nb], nb)
		}
	}
	if bestFeat < 0 {
		return -1, 0, 0
	}
	return bestFeat, bestBin, bestGain
}

// accumOne zeroes the single-feature scratch and accumulates feature f's
// histogram over idx in sample order.
func (hb *histBuilder) accumOne(f int, idx []int, nb int) {
	cnt, w, pos := hb.cnt1[:nb], hb.w1[:nb], hb.pos1[:nb]
	for b := range cnt {
		cnt[b] = 0
		w[b] = 0
		pos[b] = 0
	}
	codes := hb.bn.ColCodes(f)
	for _, i := range idx {
		c := codes[hb.smp[i]]
		cnt[c]++
		wi := hb.w[i]
		w[c] += wi
		if hb.y[i] == 1 {
			pos[c] += wi
		}
	}
}
