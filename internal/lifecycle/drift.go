// Package lifecycle is the model-lifecycle plane of the serving system:
// feature-distribution drift detection against the training fingerprint
// stored in v3 model bundles, a bounded frame-native reservoir of recent
// labeled windows, and a shadow-retrain loop that fits challenger
// forests on the fast histogram path and promotes them through an atomic
// hot swap when they beat the champion on held-out data. It turns the
// paper's train-once artifact into a self-healing service: the networkdeg
// exemplar's adaptive-baseline idea (rolling statistics instead of frozen
// cutoffs) applied to the model itself.
//
// The package is serving-agnostic: serving owns the per-shard Cells and
// the swap mechanics; lifecycle owns the statistics and the policy.
// Lock ordering: a Cell is guarded by its owning shard's lock; Monitor
// and Reservoir have internal locks that are only ever acquired *inside*
// a shard lock (Absorb) or with no shard lock held, never the reverse.
package lifecycle

import (
	"math"
	"math/bits"
	"sort"
	"sync"

	"monitorless/internal/frame"
)

// psiEps floors bin proportions so empty bins cannot drive PSI to ±Inf.
const psiEps = 1e-4

// maxTopOffenders bounds the per-app worst-feature list in drift scores.
const maxTopOffenders = 8

// plan is a fingerprint compiled for observation: the watched columns
// (frame.Fingerprint.Watched — the raw inputs the pipeline can read, or
// all of them) and their sketch edges as flat slabs the hot loop walks
// without touching the fingerprint. Edges are stored as order-preserving
// integer keys (sortKey) so the bin search is integer arithmetic.
// Watched column k's keys are keys[koff[k]:koff[k+1]] and, with one more
// bin than edges per column, its occupancy counts start at koff[k]+k.
type plan struct {
	fp   *frame.Fingerprint
	cols []int32
	keys []uint64
	koff []int32
}

func compilePlan(fp *frame.Fingerprint) plan {
	p := plan{fp: fp, cols: fp.Watched()}
	p.koff = make([]int32, len(p.cols)+1)
	for k, j := range p.cols {
		for _, e := range fp.Cols[j].Edges {
			p.keys = append(p.keys, sortKey(e))
		}
		p.koff[k+1] = int32(len(p.keys))
	}
	return p
}

// sortKey maps a non-NaN float64 to a uint64 with the same order: flip
// every bit of a negative, only the sign bit otherwise. v+0 folds −0 onto
// +0 first, which compare equal as floats but not as bits.
func sortKey(v float64) uint64 {
	b := math.Float64bits(v + 0)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// accum is one application's rolling drift state over the watched
// columns: Welford moments plus a flat sketch-bin occupancy slab, laid
// out by the plan of the Cell/Monitor that allocated it.
type accum struct {
	n      float64
	mean   []float64
	m2     []float64
	counts []uint32
}

func (p *plan) newAccum() *accum {
	w := len(p.cols)
	return &accum{mean: make([]float64, w), m2: make([]float64, w), counts: make([]uint32, len(p.keys)+w)}
}

func (a *accum) reset() {
	a.n = 0
	clear(a.mean)
	clear(a.m2)
	clear(a.counts)
}

// merge folds o into a with the exact pairwise moment combination (Chan
// et al.), so per-shard accumulators sum to the single-stream result up
// to floating-point association; occupancies just add.
func (a *accum) merge(o *accum) {
	if a.n == 0 {
		a.n = o.n
		copy(a.mean, o.mean)
		copy(a.m2, o.m2)
	} else {
		n := a.n + o.n
		for k := range a.mean {
			d := o.mean[k] - a.mean[k]
			a.mean[k] += d * o.n / n
			a.m2[k] += o.m2[k] + d*d*a.n*o.n/n
		}
		a.n = n
	}
	for i, c := range o.counts {
		a.counts[i] += c
	}
}

// Cell is one serving shard's drift accumulator set: per-app rolling
// moments and sketch-bin occupancies against a training fingerprint.
// All methods are called under the owning shard's lock; Observe is on
// the ingest hot path and allocates nothing at steady state (per-app
// accumulators are created on first sight and reused forever after).
type Cell struct {
	plan
	apps map[string]*accum
}

// NewCell returns an empty cell; it binds to a fingerprint lazily on the
// first Observe so swaps that change the fingerprint reset cells without
// cross-shard coordination.
func NewCell() *Cell { return &Cell{apps: make(map[string]*accum, 4)} }

func (c *Cell) rebind(fp *frame.Fingerprint) {
	c.plan = compilePlan(fp)
	// Accumulated counts were laid out for the old sketch; drop them.
	clear(c.apps)
}

// Observe folds one raw metric vector for app into the cell. A
// fingerprint change (hot swap to a differently-trained bundle) rebinds
// the cell and discards the stale partial window.
//
// Per watched column it does one Welford step and one bin search: the
// count of edge keys below the value's key, i.e. frame.Quantize's "first
// bin whose upper edge is ≥ v". Real metric values make every probe of
// that search a coin flip, so the halving step is computed from the
// subtraction's borrow instead of branched on (the compiler does not turn
// the equivalent if into a conditional move).
func (c *Cell) Observe(fp *frame.Fingerprint, app string, vals []float64) {
	if fp != c.fp {
		c.rebind(fp)
	}
	if len(vals) != len(fp.Cols) {
		return // schema-validated upstream; never mix widths into the slab
	}
	a := c.apps[app]
	if a == nil {
		a = c.newAccum()
		c.apps[app] = a
	}
	a.n++
	n, keys, koff := a.n, c.keys, c.koff
	mean, m2 := a.mean[:len(c.cols)], a.m2[:len(c.cols)]
	for k, j := range c.cols {
		v := vals[j]
		d := v - mean[k]
		mu := mean[k] + d/n
		mean[k] = mu
		m2[k] += d * (v - mu)

		kv := sortKey(v)
		if v != v {
			kv = math.MaxUint64 // NaN of either sign: past every edge
		}
		// base ends at koff[k]+bin, and column k's counts start at koff[k]+k.
		base, size := int(koff[k]), int(koff[k+1]-koff[k])
		for ; size > 1; size -= size >> 1 {
			half := size >> 1
			_, below := bits.Sub64(keys[base+half-1], kv, 0)
			base += half & -int(below)
		}
		if size == 1 {
			_, below := bits.Sub64(keys[base], kv, 0)
			base += int(below)
		}
		a.counts[base+k]++
	}
}

// FeatureDrift is one feature's drift score within a window.
type FeatureDrift struct {
	// Name is the raw metric name.
	Name string `json:"name"`
	// PSI is the population stability index of the window's sketch-bin
	// occupancy against the training proportions (smoothed; ≥ 0).
	// Conventional reading: < 0.1 stable, 0.1–0.25 moderate, > 0.25 major.
	PSI float64 `json:"psi"`
	// Shift is the standardized mean shift |mean_obs − mean_train| / std_train.
	Shift float64 `json:"shift"`
}

// AppDrift is one application's drift summary over its last completed
// window.
type AppDrift struct {
	App     string `json:"app"`
	Samples int    `json:"samples"`
	// Window is the monotone sequence number of the completed window.
	Window uint64 `json:"window"`
	// MaxPSI / MaxShift are the worst per-feature scores, with the
	// offending feature named.
	MaxPSI          float64 `json:"max_psi"`
	MaxPSIFeature   string  `json:"max_psi_feature"`
	MaxShift        float64 `json:"max_shift"`
	MaxShiftFeature string  `json:"max_shift_feature"`
	// Top lists the worst offenders by PSI (bounded).
	Top []FeatureDrift `json:"top,omitempty"`
}

// Monitor aggregates shard cells into per-app drift windows and scores
// each completed window against the training fingerprint. The window is
// counted in samples per app (the serving -drift-window flag), so busy
// and quiet applications each complete windows at their own traffic rate.
type Monitor struct {
	mu sync.Mutex
	plan
	window  int
	apps    map[string]*accum
	scores  map[string]AppDrift
	windows uint64
}

// DefaultDriftWindow is the per-app window size (in samples) used when a
// caller passes 0.
const DefaultDriftWindow = 2048

// NewMonitor builds a monitor scoring against fp with the given per-app
// window size in samples (0 selects DefaultDriftWindow).
func NewMonitor(fp *frame.Fingerprint, windowSamples int) *Monitor {
	if windowSamples <= 0 {
		windowSamples = DefaultDriftWindow
	}
	return &Monitor{
		plan:   compilePlan(fp),
		window: windowSamples,
		apps:   make(map[string]*accum),
		scores: make(map[string]AppDrift),
	}
}

// Reset rebinds the monitor to a new fingerprint (a swap to a
// differently-trained bundle), dropping all partial windows and scores.
func (m *Monitor) Reset(fp *frame.Fingerprint) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.plan = compilePlan(fp)
	m.apps = make(map[string]*accum)
	m.scores = make(map[string]AppDrift)
}

// Absorb merges one shard cell into the monitor's in-progress windows
// and resets the cell in place (its storage is kept for the next
// window). The caller holds the cell's shard lock; the monitor lock
// nests inside it. Any app whose accumulated sample count crosses the
// window size has its window finalized into a drift score.
func (m *Monitor) Absorb(c *Cell) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c.fp != m.fp || len(c.cols) != len(m.cols) {
		// Cell bound to another model generation (or not yet bound, or
		// compiled before the fingerprint's watch list was set): discard
		// rather than mix sketches or slab layouts.
		if c.fp != nil {
			c.rebind(c.fp)
		}
		return
	}
	for app, ca := range c.apps {
		if ca.n == 0 {
			continue
		}
		ma := m.apps[app]
		if ma == nil {
			ma = m.newAccum()
			m.apps[app] = ma
		}
		ma.merge(ca)
		ca.reset()
		if int(ma.n) >= m.window {
			m.windows++
			m.scores[app] = m.scoreWindow(app, ma, m.windows)
			ma.reset()
		}
	}
}

// Windows returns how many per-app windows have been completed and
// scored since the monitor was built (the drift_windows_total counter).
func (m *Monitor) Windows() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.windows
}

// Scores snapshots the latest completed-window drift score of every app,
// sorted by app name.
func (m *Monitor) Scores() []AppDrift {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]AppDrift, 0, len(m.scores))
	for _, d := range m.scores {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].App < out[j].App })
	return out
}

// scoreWindow computes one app's drift score from a completed window,
// over the watched columns. Callers hold m.mu.
func (p *plan) scoreWindow(app string, a *accum, window uint64) AppDrift {
	d := AppDrift{App: app, Samples: int(a.n), Window: window}
	n := a.n
	if n == 0 {
		return d
	}
	feats := make([]FeatureDrift, 0, len(p.cols))
	for k, j := range p.cols {
		ref := &p.fp.Cols[j]
		fd := FeatureDrift{Name: ref.Name}
		if ref.Std > 0 {
			fd.Shift = math.Abs(a.mean[k]-ref.Mean) / ref.Std
		}
		counts := a.counts[int(p.koff[k])+k:]
		for b, pe := range ref.Props {
			po := float64(counts[b]) / n
			if po < psiEps {
				po = psiEps
			}
			if pe < psiEps {
				pe = psiEps
			}
			fd.PSI += (po - pe) * math.Log(po/pe)
		}
		if fd.PSI > d.MaxPSI {
			d.MaxPSI, d.MaxPSIFeature = fd.PSI, fd.Name
		}
		if fd.Shift > d.MaxShift {
			d.MaxShift, d.MaxShiftFeature = fd.Shift, fd.Name
		}
		feats = append(feats, fd)
	}
	sort.Slice(feats, func(i, j int) bool {
		if feats[i].PSI != feats[j].PSI {
			return feats[i].PSI > feats[j].PSI
		}
		return feats[i].Name < feats[j].Name
	})
	if len(feats) > maxTopOffenders {
		feats = feats[:maxTopOffenders]
	}
	d.Top = feats
	return d
}
