package boost

import (
	"math"
	"math/rand"
	"sort"

	"monitorless/internal/frame"
	"monitorless/internal/ml"
	"monitorless/internal/parallel"
)

// GBTConfig mirrors the paper's Table 2 XGBoost grid
// (min_child_weight, max_depth, gamma) plus the usual shrinkage knobs.
type GBTConfig struct {
	// NumRounds is the number of boosting rounds (default 100).
	NumRounds int
	// MaxDepth bounds each regression tree (paper: 64).
	MaxDepth int
	// MinChildWeight is the minimum hessian sum per leaf (paper: 1).
	MinChildWeight float64
	// Gamma is the minimum split gain (paper: 0).
	Gamma float64
	// Lambda is the L2 leaf regularizer (XGBoost default 1).
	Lambda float64
	// LearningRate is the shrinkage η (default 0.3, XGBoost's default).
	LearningRate float64
	// Subsample is the per-round row subsampling fraction (default 1).
	Subsample float64
	// ColsampleByTree is the per-tree feature subsampling fraction
	// (default 1). Like in XGBoost, values below 1 decorrelate the trees
	// and improve transfer to unseen distributions.
	ColsampleByTree float64
	// Hist selects histogram split finding (XGBoost's tree_method=hist):
	// columns are quantized once per fit and every node accumulates
	// per-bin (grad, hess) sums instead of sorting, with candidate
	// features evaluated in parallel on large nodes.
	Hist bool
	// Bins caps per-column bins for the Hist path; 0 = 256.
	Bins int
	// Seed makes training deterministic.
	Seed int64
}

// GBT is an XGBoost-style gradient boosted tree ensemble for binary
// logistic loss, trained with exact greedy splits on the second-order
// objective gain  ½·[GL²/(HL+λ) + GR²/(HR+λ) − G²/(H+λ)] − γ.
type GBT struct {
	cfg    GBTConfig
	trees  []gbtTree
	base   float64 // initial log-odds
	fitted bool
}

var _ ml.Classifier = (*GBT)(nil)
var _ ml.FrameFitter = (*GBT)(nil)

type gbtNode struct {
	feature   int32
	left      int32
	right     int32
	threshold float64
	value     float64 // leaf weight
}

type gbtTree struct {
	nodes []gbtNode
}

// NewGBT returns an unfitted gradient-boosted tree ensemble.
func NewGBT(cfg GBTConfig) *GBT {
	if cfg.NumRounds <= 0 {
		cfg.NumRounds = 100
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 6
	}
	if cfg.MinChildWeight <= 0 {
		cfg.MinChildWeight = 1
	}
	if cfg.Lambda <= 0 {
		cfg.Lambda = 1
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.3
	}
	if cfg.Subsample <= 0 || cfg.Subsample > 1 {
		cfg.Subsample = 1
	}
	if cfg.ColsampleByTree <= 0 || cfg.ColsampleByTree > 1 {
		cfg.ColsampleByTree = 1
	}
	return &GBT{cfg: cfg}
}

// Fit trains the ensemble on binary logistic loss. Thin adapter:
// validate once, transpose once, columnar after that.
func (g *GBT) Fit(x [][]float64, y []int) error {
	if _, err := ml.ValidateTrainingSet(x, y); err != nil {
		return err
	}
	return g.fitColumns(ml.FrameOf(x).Cols(nil), y)
}

// FitFrame trains on the frame rows listed in rows (nil = all), with y
// holding one label per frame row (nil = fr.Labels()). A row subset is
// gathered once into compact columns; the full-frame case fits on the
// frame's columns zero-copy.
func (g *GBT) FitFrame(fr *frame.Frame, y []int, rows []int) error {
	y, err := ml.ValidateFrame(fr, y, rows)
	if err != nil {
		return err
	}
	if rows == nil {
		return g.fitColumns(fr.Cols(nil), y)
	}
	d := fr.NumCols()
	cols := make([][]float64, d)
	flat := make([]float64, len(rows)*d)
	ty := make([]int, len(rows))
	for p, i := range rows {
		ty[p] = y[i]
	}
	for j := 0; j < d; j++ {
		src := fr.Col(j)
		dst := flat[j*len(rows) : (j+1)*len(rows)]
		for p, i := range rows {
			dst[p] = src[i]
		}
		cols[j] = dst
	}
	return g.fitColumns(cols, ty)
}

// fitColumns runs the boosting loop over compact columns (cols[f][i] is
// the value of sample i under feature f).
func (g *GBT) fitColumns(cols [][]float64, y []int) error {
	n := len(y)

	// Initial prediction: log-odds of the base rate.
	pos := 0
	for _, label := range y {
		pos += label
	}
	p := clampProb(float64(pos) / float64(n))
	g.base = math.Log(p / (1 - p))
	g.trees = g.trees[:0]

	margin := make([]float64, n)
	for i := range margin {
		margin[i] = g.base
	}
	grad := make([]float64, n)
	hess := make([]float64, n)
	rng := rand.New(rand.NewSource(g.cfg.Seed))

	// Histogram path: quantize the columns once (edges over all training
	// rows); per-round subsamples index the shared code slab.
	var bn *frame.Binned
	var histScratch *gbtHistScratch
	if g.cfg.Hist {
		bn = frame.BinColumns(cols, n, g.cfg.Bins, nil)
		nb := bn.MaxNumBins()
		histScratch = &gbtHistScratch{
			gl:  make([]float64, nb),
			hl:  make([]float64, nb),
			cnt: make([]int, nb),
		}
	}

	order := make([]int, n)
	part := make([]int, 0, n)

	for round := 0; round < g.cfg.NumRounds; round++ {
		for i := 0; i < n; i++ {
			pi := sigmoid(margin[i])
			grad[i] = pi - float64(y[i])
			hess[i] = pi * (1 - pi)
		}
		idx := make([]int, 0, n)
		if g.cfg.Subsample < 1 {
			for i := 0; i < n; i++ {
				if rng.Float64() < g.cfg.Subsample {
					idx = append(idx, i)
				}
			}
			if len(idx) < 2 {
				continue
			}
		} else {
			for i := 0; i < n; i++ {
				idx = append(idx, i)
			}
		}

		t := gbtTree{}
		b := &gbtBuilder{
			g: g, cols: cols, grad: grad, hess: hess, tree: &t,
			bn: bn, hist: histScratch, order: order, part: part,
		}
		if g.cfg.ColsampleByTree < 1 {
			d := len(cols)
			k := int(g.cfg.ColsampleByTree * float64(d))
			if k < 1 {
				k = 1
			}
			b.feats = rng.Perm(d)[:k]
		}
		b.build(idx, 0)
		g.trees = append(g.trees, t)

		for i := 0; i < n; i++ {
			margin[i] += g.cfg.LearningRate * t.predictCols(cols, i)
		}
	}
	g.fitted = true
	return nil
}

// gbtHistScratch is the serial-path histogram buffer set, reused across
// nodes and rounds.
type gbtHistScratch struct {
	gl  []float64
	hl  []float64
	cnt []int
}

type gbtBuilder struct {
	g    *GBT
	cols [][]float64
	grad []float64
	hess []float64
	tree *gbtTree
	// feats restricts splits to a per-tree feature subset (nil = all).
	feats []int
	// bn/hist enable histogram split finding (nil = exact sorted scans).
	bn   *frame.Binned
	hist *gbtHistScratch
	// order/part are the per-fit arena: order backs the exact path's
	// sorted scans, part the in-place stable partition. Both are shared
	// across every node of every round.
	order []int
	part  []int
}

// gbtSplit is one candidate split: exact splits carry the threshold
// directly, histogram splits carry the bin (threshold derived from the
// global bin edge).
type gbtSplit struct {
	gain float64
	thr  float64
	bin  int
	ok   bool
}

func (b *gbtBuilder) build(idx []int, depth int) int32 {
	cfg := b.g.cfg
	var gSum, hSum float64
	for _, i := range idx {
		gSum += b.grad[i]
		hSum += b.hess[i]
	}
	leaf := -gSum / (hSum + cfg.Lambda)

	nodeIdx := int32(len(b.tree.nodes))
	b.tree.nodes = append(b.tree.nodes, gbtNode{feature: -1, value: leaf})

	if depth >= cfg.MaxDepth || len(idx) < 2 || hSum < 2*cfg.MinChildWeight {
		return nodeIdx
	}

	parentScore := gSum * gSum / (hSum + cfg.Lambda)
	feats := b.feats
	if feats == nil {
		d := len(b.cols)
		feats = make([]int, d)
		for i := range feats {
			feats[i] = i
		}
	}

	bestGain, bestFeat, bestThr, bestBin := 0.0, -1, 0.0, -1
	if b.bn != nil {
		// Histogram search. On large nodes the independent per-feature
		// accumulations fan out across the pool (each worker fills its
		// own buffers); the argmax reduction is always serial in feats
		// order, so the chosen split is pool-width independent.
		const parThreshold = 16384
		var splits []gbtSplit
		if len(idx)*len(feats) >= parThreshold && len(feats) > 1 {
			splits, _ = parallel.Map(len(feats), func(k int) (gbtSplit, error) {
				nb := b.bn.MaxNumBins()
				s := &gbtHistScratch{
					gl:  make([]float64, nb),
					hl:  make([]float64, nb),
					cnt: make([]int, nb),
				}
				return b.evalFeatHist(feats[k], idx, gSum, hSum, parentScore, s), nil
			})
		} else {
			splits = make([]gbtSplit, len(feats))
			for k, f := range feats {
				splits[k] = b.evalFeatHist(f, idx, gSum, hSum, parentScore, b.hist)
			}
		}
		for k, s := range splits {
			if s.ok && s.gain > bestGain {
				bestGain, bestFeat, bestBin = s.gain, feats[k], s.bin
			}
		}
		if bestFeat >= 0 {
			bestThr = b.bn.Edge(bestFeat, bestBin)
		}
	} else {
		order := b.order[:len(idx)]
		for _, f := range feats {
			col := b.cols[f]
			copy(order, idx)
			sort.SliceStable(order, func(a, c int) bool { return col[order[a]] < col[order[c]] })
			var gl, hl float64
			for i := 0; i < len(order)-1; i++ {
				s := order[i]
				gl += b.grad[s]
				hl += b.hess[s]
				v, next := col[s], col[order[i+1]]
				if v == next {
					continue
				}
				gr, hr := gSum-gl, hSum-hl
				if hl < cfg.MinChildWeight || hr < cfg.MinChildWeight {
					continue
				}
				gain := 0.5*(gl*gl/(hl+cfg.Lambda)+gr*gr/(hr+cfg.Lambda)-parentScore) - cfg.Gamma
				if gain > bestGain {
					bestGain, bestFeat = gain, f
					bestThr = v + (next-v)/2
				}
			}
		}
	}
	if bestFeat < 0 {
		return nodeIdx
	}

	left, right := b.partition(idx, bestFeat, bestThr, bestBin)
	if len(left) == 0 || len(right) == 0 {
		return nodeIdx
	}
	l := b.build(left, depth+1)
	r := b.build(right, depth+1)
	b.tree.nodes[nodeIdx].feature = int32(bestFeat)
	b.tree.nodes[nodeIdx].threshold = bestThr
	b.tree.nodes[nodeIdx].left = l
	b.tree.nodes[nodeIdx].right = r
	return nodeIdx
}

// evalFeatHist accumulates feature f's per-bin (count, grad, hess) sums
// over idx in sample order, then scans the bin boundaries for the best
// second-order gain.
func (b *gbtBuilder) evalFeatHist(f int, idx []int, gSum, hSum, parentScore float64, s *gbtHistScratch) gbtSplit {
	cfg := b.g.cfg
	nb := b.bn.NumBins(f)
	gl, hl, cnt := s.gl[:nb], s.hl[:nb], s.cnt[:nb]
	for i := range cnt {
		gl[i], hl[i], cnt[i] = 0, 0, 0
	}
	codes := b.bn.ColCodes(f)
	for _, i := range idx {
		c := codes[i]
		cnt[c]++
		gl[c] += b.grad[i]
		hl[c] += b.hess[i]
	}
	var out gbtSplit
	var lg, lh float64
	lc := 0
	for bin := 0; bin < nb-1; bin++ {
		c := cnt[bin]
		lc += c
		lg += gl[bin]
		lh += hl[bin]
		if c == 0 {
			continue
		}
		if lc == len(idx) {
			break // nothing remains on the right
		}
		rg, rh := gSum-lg, hSum-lh
		if lh < cfg.MinChildWeight || rh < cfg.MinChildWeight {
			continue
		}
		gain := 0.5*(lg*lg/(lh+cfg.Lambda)+rg*rg/(rh+cfg.Lambda)-parentScore) - cfg.Gamma
		if !out.ok || gain > out.gain {
			out = gbtSplit{gain: gain, bin: bin, ok: true}
		}
	}
	return out
}

// partition splits idx in place (stable on both sides, one shared
// scratch buffer — same scheme as the tree builder). Histogram splits
// compare codes, exact splits compare values; the two are equivalent on
// the chosen feature because code(v) <= bin ⟺ v <= Edge(f, bin).
func (b *gbtBuilder) partition(idx []int, feat int, thr float64, bin int) (left, right []int) {
	scratch := b.part[:0]
	k := 0
	if b.bn != nil {
		codes := b.bn.ColCodes(feat)
		bc := uint8(bin)
		for _, i := range idx {
			if codes[i] <= bc {
				idx[k] = i
				k++
			} else {
				scratch = append(scratch, i)
			}
		}
	} else {
		col := b.cols[feat]
		for _, i := range idx {
			if col[i] <= thr {
				idx[k] = i
				k++
			} else {
				scratch = append(scratch, i)
			}
		}
	}
	b.part = scratch
	copy(idx[k:], scratch)
	return idx[:k], idx[k:]
}

func (t *gbtTree) predict(x []float64) float64 {
	i := int32(0)
	for {
		n := t.nodes[i]
		if n.feature < 0 {
			return n.value
		}
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// predictCols walks the tree for sample i of a compact column set,
// touching only the features on the root-to-leaf path.
func (t *gbtTree) predictCols(cols [][]float64, i int) float64 {
	k := int32(0)
	for {
		n := t.nodes[k]
		if n.feature < 0 {
			return n.value
		}
		if cols[n.feature][i] <= n.threshold {
			k = n.left
		} else {
			k = n.right
		}
	}
}

// PredictProba returns σ(base + η·Σ tree(x)).
func (g *GBT) PredictProba(x []float64) float64 {
	if !g.fitted {
		return 0.5
	}
	m := g.base
	for _, t := range g.trees {
		m += g.cfg.LearningRate * t.predict(x)
	}
	return sigmoid(m)
}

// Predict thresholds the probability at 0.5.
func (g *GBT) Predict(x []float64) int {
	if g.PredictProba(x) >= 0.5 {
		return 1
	}
	return 0
}
