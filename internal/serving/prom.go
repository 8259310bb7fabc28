package serving

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// A minimal Prometheus text-exposition registry (counters, gauges,
// histograms with labels), hand-rolled because the repo is stdlib-only.
// Counters and gauges are lock-free; histograms take a short mutex per
// observation. Render order is deterministic (sorted family and series
// names) so scrapes diff cleanly.

// Labels annotates one series within a metric family.
type Labels map[string]string

// labelKey renders labels in canonical sorted form, escaped per the
// Prometheus text format ("{a=\"b\",c=\"d\"}", "" when empty).
func labelKey(l Labels) string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing float64.
type Counter struct {
	bits atomic.Uint64
}

// Add increments the counter; negative deltas are ignored.
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a settable float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reads the gauge.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// shardCell is one cache-line-padded counter slot. The padding keeps
// neighbouring shards' hot counters out of each other's cache lines, so
// per-sample accounting on one shard never bounces a line owned by
// another.
type shardCell struct {
	bits atomic.Uint64
	_    [7]uint64
}

// ShardedCounter is a monotonically increasing float64 split into
// per-shard padded cells. Writers add to their own cell without
// contention; readers (the /metrics scrape) sum the cells, so a scrape
// never blocks ingest and ingest never serializes on a shared line.
type ShardedCounter struct {
	cells []shardCell
}

// NewShardedCounter returns a counter with n independent cells.
func NewShardedCounter(n int) *ShardedCounter {
	if n < 1 {
		n = 1
	}
	return &ShardedCounter{cells: make([]shardCell, n)}
}

// Add increments shard i's cell; negative deltas are ignored.
func (c *ShardedCounter) Add(i int, v float64) {
	if v < 0 {
		return
	}
	cell := &c.cells[i]
	for {
		old := cell.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if cell.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value sums the cells.
func (c *ShardedCounter) Value() float64 {
	s := 0.0
	for i := range c.cells {
		s += math.Float64frombits(c.cells[i].bits.Load())
	}
	return s
}

// DefaultLatencyBuckets spans 100µs – 2.5s, tuned for model-serving
// request latencies.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// predictStageBuckets spans 100ns – 1ms: the per-sample forest predict
// stage (key + tree walk, amortized over a shard batch) sits orders
// of magnitude below request latency, so the stage histogram needs its
// own resolution to show a batch-predict speedup at all.
var predictStageBuckets = []float64{
	1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 1e-3,
}

// Histogram is a fixed-bucket latency histogram.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; the last bucket is +Inf
	sum    float64
	total  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of the same value under one lock
// acquisition — the batch serving path records each tick's per-sample
// latency once per shard batch instead of once per sample.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if n == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i] += n
	h.sum += v * float64(n)
	h.total += n
}

// snapshot copies the histogram state for rendering.
func (h *Histogram) snapshot() (bounds []float64, counts []uint64, sum float64, total uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bounds, append([]uint64(nil), h.counts...), h.sum, h.total
}

// ShardedHistogram splits one logical histogram into per-shard
// histograms (each with its own short mutex) merged at scrape time, so
// concurrent shard batches never serialize on one histogram lock.
type ShardedHistogram struct {
	hs []*Histogram
}

// NewShardedHistogram returns n per-shard histograms over bounds
// (nil selects DefaultLatencyBuckets).
func NewShardedHistogram(n int, bounds []float64) *ShardedHistogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	if n < 1 {
		n = 1
	}
	hs := make([]*Histogram, n)
	for i := range hs {
		hs[i] = &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	}
	return &ShardedHistogram{hs: hs}
}

// Shard returns shard i's histogram.
func (s *ShardedHistogram) Shard(i int) *Histogram { return s.hs[i] }

// snapshot merges the per-shard histograms into one rendering image.
func (s *ShardedHistogram) snapshot() (bounds []float64, counts []uint64, sum float64, total uint64) {
	bounds = s.hs[0].bounds
	counts = make([]uint64, len(bounds)+1)
	for _, h := range s.hs {
		_, c, hs, ht := h.snapshot()
		for i, v := range c {
			counts[i] += v
		}
		sum += hs
		total += ht
	}
	return bounds, counts, sum, total
}

// histSource is anything renderable as one histogram series.
type histSource interface {
	snapshot() (bounds []float64, counts []uint64, sum float64, total uint64)
}

// funcMetric renders a counter or gauge series from a callback at scrape
// time — the aggregation hook for per-shard cells.
type funcMetric struct {
	fn func() float64
}

// metricKind tags a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// family is one named metric with labeled series.
type family struct {
	name   string
	help   string
	kind   metricKind
	bounds []float64
	series map[string]any // labelKey → *Counter | *Gauge | *Histogram
	labels map[string]Labels
}

// Registry holds metric families and renders the text format.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind metricKind, bounds []float64) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, bounds: bounds,
			series: make(map[string]any), labels: make(map[string]Labels)}
		r.families[name] = f
	}
	return f
}

// Counter returns (creating if needed) the labeled counter series.
func (r *Registry) Counter(name, help string, l Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindCounter, nil)
	k := labelKey(l)
	if s, ok := f.series[k]; ok {
		return s.(*Counter)
	}
	c := &Counter{}
	f.series[k] = c
	f.labels[k] = l
	return c
}

// Gauge returns (creating if needed) the labeled gauge series.
func (r *Registry) Gauge(name, help string, l Labels) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindGauge, nil)
	k := labelKey(l)
	if s, ok := f.series[k]; ok {
		return s.(*Gauge)
	}
	g := &Gauge{}
	f.series[k] = g
	f.labels[k] = l
	return g
}

// CounterFunc registers a counter series whose value is computed by fn
// at scrape time (e.g. the sum of per-shard cells). Re-registering the
// same series replaces the callback.
func (r *Registry) CounterFunc(name, help string, l Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindCounter, nil)
	k := labelKey(l)
	f.series[k] = &funcMetric{fn: fn}
	f.labels[k] = l
}

// GaugeFunc registers a gauge series computed by fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, l Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindGauge, nil)
	k := labelKey(l)
	f.series[k] = &funcMetric{fn: fn}
	f.labels[k] = l
}

// HistogramSource registers src (e.g. a ShardedHistogram) as the labeled
// histogram series, rendered from its merged snapshot at scrape time.
func (r *Registry) HistogramSource(name, help string, l Labels, src histSource) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindHistogram, nil)
	k := labelKey(l)
	f.series[k] = src
	f.labels[k] = l
}

// Histogram returns (creating if needed) the labeled histogram series.
// bounds must be ascending; nil selects DefaultLatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64, l Labels) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindHistogram, bounds)
	k := labelKey(l)
	if s, ok := f.series[k]; ok {
		return s.(*Histogram)
	}
	h := &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	f.series[k] = h
	f.labels[k] = l
	return h
}

// WriteText renders every family in the Prometheus text exposition format.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	for _, f := range fams {
		kind := map[metricKind]string{kindCounter: "counter", kindGauge: "gauge", kindHistogram: "histogram"}[f.kind]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, kind); err != nil {
			return err
		}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			switch m := f.series[k].(type) {
			case *Counter:
				fmt.Fprintf(w, "%s%s %v\n", f.name, k, m.Value())
			case *Gauge:
				fmt.Fprintf(w, "%s%s %v\n", f.name, k, m.Value())
			case *funcMetric:
				fmt.Fprintf(w, "%s%s %v\n", f.name, k, m.fn())
			case histSource:
				if err := writeHistogram(w, f.name, f.labels[k], m); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// writeHistogram renders cumulative le buckets plus _sum and _count.
func writeHistogram(w io.Writer, name string, l Labels, h histSource) error {
	bounds, counts, sum, total := h.snapshot()

	withLe := func(le string) string {
		ll := Labels{"le": le}
		for k, v := range l {
			ll[k] = v
		}
		return labelKey(ll)
	}
	var cum uint64
	for i, b := range bounds {
		cum += counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLe(fmt.Sprintf("%v", b)), cum); err != nil {
			return err
		}
	}
	cum += counts[len(bounds)]
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLe("+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %v\n", name, labelKey(l), sum)
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labelKey(l), total)
	return err
}
