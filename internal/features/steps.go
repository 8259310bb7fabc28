package features

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"monitorless/internal/frame"
	"monitorless/internal/linalg"
	"monitorless/internal/ml/forest"
	"monitorless/internal/ml/tree"
	"monitorless/internal/parallel"
)

// Step is one pipeline stage over the columnar data plane: Fit learns its
// parameters on the training frame. Applying them is not a method: every
// step has one columnar kernel (batch.go), which FitFrame, TransformFrame
// and Streamer.StepBatchInto all run.
type Step interface {
	// Name identifies the step for diagnostics.
	Name() string
	// Fit learns the step's parameters (labels may be consulted).
	Fit(fr *frame.Frame) error
}

// ---------------------------------------------------------------------
// Step 1: hot-encoded level bits + log scaling (§3.3.1, §3.3.2).
// ---------------------------------------------------------------------

// levelSpec defines one binary feature derived from a utilization column.
type levelSpec struct {
	Suffix string
	Test   func(v float64) bool
}

// The spec tables are shared package state — callers iterate, never
// mutate — so the per-sample streaming paths stay allocation-free.
var (
	cpuLevelSpecs = []levelSpec{
		{"LOW", func(v float64) bool { return v < 50 }},
		{"MEDIUM", func(v float64) bool { return v >= 50 && v <= 80 }},
		{"HIGH", func(v float64) bool { return v > 80 }},
		{"VERYHIGH", func(v float64) bool { return v > 90 }},
		{"EXTREME", func(v float64) bool { return v > 95 }},
	}
	memLevelSpecs = cpuLevelSpecs[:3]
)

func levelSpecs(cpu bool) []levelSpec {
	if cpu {
		return cpuLevelSpecs
	}
	return memLevelSpecs
}

// Expand adds the hot-encoded CPU/MEM level bits for the four core
// utilization metrics (host/container × CPU/MEM → 16 bits, §3.3.1) and
// moves unbounded byte-valued metrics to a log10 scale (§3.3.2).
type Expand struct {
	// Sources lists the utilization columns that received level bits.
	Sources []string
	// In, LogIdx, TargetIdx and TargetCPU are the fitted state the kernel
	// applies: the raw input width, the columns moved to a log scale, the
	// utilization columns receiving level bits, and whether each target
	// gets the extra CPU bits.
	In        int
	LogIdx    []int
	TargetIdx []int
	TargetCPU []bool
}

var _ Step = (*Expand)(nil)

// Name implements Step.
func (e *Expand) Name() string { return "expand" }

// expandTargets returns the util columns that receive level bits with
// their bit-name prefixes.
func expandTargets(cols []Column) (idx []int, prefix []string, isCPU []bool) {
	for i, c := range cols {
		var p string
		var cpu bool
		switch c.Name {
		case "H-CPU-U":
			p, cpu = "H-CPU", true
		case "C-CPU-U":
			p, cpu = "C-CPU", true
		case "H-MEM-U":
			p, cpu = "H-MEM", false
		case "S-MEM-U":
			p, cpu = "S-MEM", false
		default:
			continue
		}
		idx = append(idx, i)
		prefix = append(prefix, p)
		isCPU = append(isCPU, cpu)
	}
	return idx, prefix, isCPU
}

// Fit implements Step.
func (e *Expand) Fit(fr *frame.Frame) error {
	cols := []Column(fr.Schema())
	idx, prefixes, isCPU := expandTargets(cols)
	e.Sources = prefixes
	e.In = fr.NumCols()
	e.TargetIdx = idx
	e.TargetCPU = isCPU
	e.LogIdx = e.LogIdx[:0]
	for i, c := range cols {
		if c.Log {
			e.LogIdx = append(e.LogIdx, i)
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Step 2: standard-score normalization (§3.3.3).
// ---------------------------------------------------------------------

// StandardScale transforms every column to zero mean and unit variance
// (scikit-learn's StandardScaler).
type StandardScale struct {
	Mean, Std []float64
}

var _ Step = (*StandardScale)(nil)

// Name implements Step.
func (s *StandardScale) Name() string { return "standardize" }

// Fit implements Step.
func (s *StandardScale) Fit(fr *frame.Frame) error {
	n := fr.Rows()
	if n == 0 {
		return fmt.Errorf("features: standardize: empty table")
	}
	d := fr.NumCols()
	s.Mean = make([]float64, d)
	s.Std = make([]float64, d)
	for j := 0; j < d; j++ {
		col := fr.Col(j)
		for _, v := range col {
			s.Mean[j] += v
		}
		s.Mean[j] /= float64(n)
		for _, v := range col {
			dv := v - s.Mean[j]
			s.Std[j] += dv * dv
		}
		s.Std[j] = math.Sqrt(s.Std[j] / float64(n))
	}
	return nil
}

// ---------------------------------------------------------------------
// Step 3/5: reduction — random-forest filter or PCA (§3.3.4).
// ---------------------------------------------------------------------

// RFFilter trains a random forest per training run and keeps the union of
// each run's top-K most important features.
type RFFilter struct {
	// TopK is the per-run importance cut (paper: 30).
	TopK int
	// Trees and MaxDepth bound the per-run forests.
	Trees, MaxDepth int
	// Seed makes filtering deterministic.
	Seed int64
	// Keep is the fitted set of retained column indices.
	Keep []int
	// KeepNames mirrors Keep for diagnostics.
	KeepNames []string
}

var _ Step = (*RFFilter)(nil)

// selection is a step whose output is its kept input columns, in order:
// RFFilter and DropZeroVariance share one arm in every kernel switch.
type selection interface{ kept() []int }

func (f *RFFilter) kept() []int { return f.Keep }

// Name implements Step.
func (f *RFFilter) Name() string { return "rf-filter" }

// Fit implements Step.
func (f *RFFilter) Fit(fr *frame.Frame) error {
	return f.fitRuns(fr.Schema(), fr.NumRuns(), fr.RunView)
}

// fitRuns fits the filter on the nruns runs of a frame with the given
// schema, run(k) returning run k's rows. The runs fit side by side, and
// each is dropped once ranked, so a caller may build it on demand.
func (f *RFFilter) fitRuns(schema frame.Schema, nruns int, run func(k int) *frame.Frame) error {
	if f.TopK <= 0 {
		f.TopK = 30
	}
	if f.Trees <= 0 {
		f.Trees = 20
	}
	if f.MaxDepth <= 0 {
		f.MaxDepth = 5
	}
	// Consider every feature at every split while the schema is small:
	// importance then concentrates on the strongest separators
	// (utilizations, throttling) instead of smearing across the dozens of
	// correlated throughput-scale metrics — matching the clean per-run
	// top-30 lists the paper reports. On wide engineered schemas (the
	// post-product second filter) fall back to √d subsampling to bound the
	// fit cost; those candidates all derive from already-selected signal
	// features.
	maxFeat := -2 // all features
	if len(schema) > 600 {
		maxFeat = -1 // √d
	}
	// Each run's forest is seeded by its run ID, so Keep is the same at
	// any worker count.
	tops, err := parallel.Map(nruns, func(k int) ([]int, error) {
		return runTopK(f, run(k), maxFeat)
	})
	if err != nil {
		return err
	}
	keep := map[int]bool{}
	for _, top := range tops {
		for _, i := range top {
			keep[i] = true
		}
	}
	if len(keep) == 0 {
		return fmt.Errorf("features: rf-filter retained no features (no labeled mixed-class runs?)")
	}
	// Always retain the derived relative utilizations and hot-encoded
	// level bits: the paper reports them as highly important and they are
	// the scale-portable backbone of the model (§3.3.1, §3.5). They are
	// few, so this never blows up the feature budget.
	for i, c := range schema {
		if (c.Util || c.Binary) && !c.TimeDerived {
			keep[i] = true
		}
	}
	f.Keep = make([]int, 0, len(keep))
	for i := range keep {
		f.Keep = append(f.Keep, i)
	}
	sort.Ints(f.Keep)
	f.KeepNames = make([]string, len(f.Keep))
	for i, k := range f.Keep {
		f.KeepNames[i] = schema[k].Name
	}
	return nil
}

// runTopK fits one run's forest and returns its TopK most important
// columns, ranked by importance descending and then column index, and
// stopping at the first zero importance. Runs without labels or with a
// single class carry no importance signal and return nil.
func runTopK(f *RFFilter, run *frame.Frame, maxFeat int) ([]int, error) {
	labels := run.Labels()
	if len(labels) == 0 || !slices.ContainsFunc(labels, func(l int) bool { return l != labels[0] }) {
		return nil, nil
	}
	rf := forest.New(forest.Config{
		NumTrees:       f.Trees,
		MaxDepth:       f.MaxDepth,
		MinSamplesLeaf: 5,
		MaxFeatures:    maxFeat,
		Seed:           f.Seed + int64(run.Spans()[0].ID),
		Criterion:      tree.Entropy,
	})
	if err := rf.FitFrame(run, nil, nil); err != nil {
		return nil, fmt.Errorf("features: rf-filter run %d: %w", run.Spans()[0].ID, err)
	}
	imp := rf.FeatureImportances()
	ranked := make([]int, len(imp))
	for i := range ranked {
		ranked[i] = i
	}
	slices.SortFunc(ranked, func(a, b int) int {
		if c := cmp.Compare(imp[b], imp[a]); c != 0 {
			return c
		}
		return a - b
	})
	top := ranked[:min(f.TopK, len(ranked))]
	for k, i := range top {
		if imp[i] <= 0 {
			return top[:k], nil
		}
	}
	return top, nil
}

// PCAReduce projects the table onto principal components (§3.3.4's
// alternative reduction; paper: 50 components / 99.99%% variance).
type PCAReduce struct {
	// MaxComponents and VarianceTarget select the dimensionality.
	MaxComponents  int
	VarianceTarget float64
	// P is the fitted projection.
	P *linalg.PCA
}

var _ Step = (*PCAReduce)(nil)

// Name implements Step.
func (p *PCAReduce) Name() string { return "pca" }

// Fit implements Step.
func (p *PCAReduce) Fit(fr *frame.Frame) error {
	if p.MaxComponents <= 0 {
		p.MaxComponents = 50
	}
	if p.VarianceTarget <= 0 {
		p.VarianceTarget = 0.9999
	}
	m, err := linalg.FromFrame(fr)
	if err != nil {
		return fmt.Errorf("features: pca: %w", err)
	}
	fitted, err := linalg.FitPCA(m, p.MaxComponents, p.VarianceTarget)
	if err != nil {
		return fmt.Errorf("features: pca: %w", err)
	}
	p.P = fitted
	return nil
}

// ---------------------------------------------------------------------
// Step 4a: time-dependent features (§3.3.5).
// ---------------------------------------------------------------------

// TimeFeatures appends X-AVG (trailing average over X+1 samples) and
// X-LAG (value X samples ago) variants of every column. Early rows of a
// run use the available prefix (averages shrink, lags clamp to row 0).
type TimeFeatures struct {
	// AvgWindows and LagWindows list the X values (paper: 1, 5, 15; the
	// Table 4 names use AVG4/AVG14, i.e. X−1 in the suffix).
	AvgWindows []int
	LagWindows []int
	InCols     int
}

var _ Step = (*TimeFeatures)(nil)

// Name implements Step.
func (tf *TimeFeatures) Name() string { return "time-features" }

// maxWindows returns the longest trailing-average and lag windows.
func (tf *TimeFeatures) maxWindows() (avg, lag int) {
	for _, w := range tf.AvgWindows {
		avg = max(avg, w)
	}
	for _, w := range tf.LagWindows {
		lag = max(lag, w)
	}
	return avg, lag
}

// Fit implements Step.
func (tf *TimeFeatures) Fit(fr *frame.Frame) error {
	if len(tf.AvgWindows) == 0 {
		tf.AvgWindows = []int{1, 4, 14}
	}
	if len(tf.LagWindows) == 0 {
		tf.LagWindows = []int{1, 5, 15}
	}
	tf.InCols = fr.NumCols()
	return nil
}

// ---------------------------------------------------------------------
// Step 4b: multiplicative feature combinations (§3.3.6).
// ---------------------------------------------------------------------

// Products appends pairwise products of non-time-derived features. A pair
// is eligible when at least one member is a hot-encoded level bit, or when
// both members are relative utilizations. This mirrors the structure of
// the paper's Table 4, where every ranked product involves a binary
// CPU-level factor (e.g. "network.tcp.currestab × C-CPU-HIGH",
// "C-CPU-VERYHIGH × C-CPU-VERYHIGH", "S-MEM-U-mapped × C-CPU-VERYHIGH") —
// and it keeps the products scale-portable: a metric gated by a binary
// bit, or a product of two bounded 0–100 signals, transfers across
// services with very different absolute throughput scales.
type Products struct {
	// Pairs is the fitted list of (i, j) column index pairs.
	Pairs  [][2]int
	InCols int
}

var _ Step = (*Products)(nil)

// Name implements Step.
func (p *Products) Name() string { return "products" }

// Fit implements Step.
func (p *Products) Fit(fr *frame.Frame) error {
	cols := fr.Schema()
	p.InCols = len(cols)
	p.Pairs = p.Pairs[:0]
	for i := 0; i < len(cols); i++ {
		ci := cols[i]
		if ci.TimeDerived {
			continue
		}
		for j := i; j < len(cols); j++ {
			cj := cols[j]
			if cj.TimeDerived {
				continue
			}
			bi := ci.Binary || ci.Util
			bj := cj.Binary || cj.Util
			if bi && bj && !(i == j && ci.Util) {
				p.Pairs = append(p.Pairs, [2]int{i, j})
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Step 6: zero-variance removal (§3.3.7 step 6).
// ---------------------------------------------------------------------

// DropZeroVariance removes columns that are constant on the training set.
type DropZeroVariance struct {
	Keep []int
}

var _ Step = (*DropZeroVariance)(nil)

func (z *DropZeroVariance) kept() []int { return z.Keep }

// Name implements Step.
func (z *DropZeroVariance) Name() string { return "drop-zero-variance" }

// Fit implements Step.
func (z *DropZeroVariance) Fit(fr *frame.Frame) error {
	if fr.Rows() == 0 {
		return fmt.Errorf("features: drop-zero-variance: empty table")
	}
	z.Keep = z.Keep[:0]
	for j := 0; j < fr.NumCols(); j++ {
		col := fr.Col(j)
		first := col[0]
		for _, v := range col[1:] {
			if v != first {
				z.Keep = append(z.Keep, j)
				break
			}
		}
	}
	if len(z.Keep) == 0 {
		return fmt.Errorf("features: all columns have zero variance")
	}
	return nil
}
