package frame

import (
	"fmt"
	"math"

	"monitorless/internal/parallel"
)

// This file is the statistical half of the model-lifecycle plane: a
// streaming per-column moment accumulator cheap enough for the serving
// ingest hot path, and a compact training fingerprint (per-column
// mean/var plus a quantile sketch) computed once at fit time. Serving
// compares rolling moments and bin occupancies against the fingerprint
// to score feature-distribution drift (standardized mean shift, PSI)
// without retaining any raw samples.

// DefaultFingerprintBins is the quantile-sketch resolution used when a
// caller passes 0 — ten equal-frequency bins, the conventional PSI
// binning.
const DefaultFingerprintBins = 10

// MaxFingerprintBins bounds the sketch resolution.
const MaxFingerprintBins = 64

// Moments is a streaming per-column mean/variance accumulator using
// Welford's algorithm, with an exact pairwise merge (Chan et al.) so
// per-shard accumulators can be combined at scrape time. The zero value
// is not usable; construct with NewMoments. Observe allocates nothing.
type Moments struct {
	n    float64
	mean []float64
	m2   []float64
}

// NewMoments returns an accumulator over cols columns.
func NewMoments(cols int) *Moments {
	return &Moments{mean: make([]float64, cols), m2: make([]float64, cols)}
}

// Cols returns the column count.
func (m *Moments) Cols() int { return len(m.mean) }

// Count returns the number of observed rows.
func (m *Moments) Count() float64 { return m.n }

// Observe folds one row into the accumulator. len(vals) must equal Cols.
func (m *Moments) Observe(vals []float64) {
	m.n++
	for j, v := range vals {
		d := v - m.mean[j]
		m.mean[j] += d / m.n
		m.m2[j] += d * (v - m.mean[j])
	}
}

// Mean returns the running mean of column j (0 before any observation).
func (m *Moments) Mean(j int) float64 { return m.mean[j] }

// Var returns the running population variance of column j.
func (m *Moments) Var(j int) float64 {
	if m.n < 1 {
		return 0
	}
	return m.m2[j] / m.n
}

// Merge folds accumulator o into m (parallel-variance combination). The
// result is the exact moment set of the concatenated observation streams
// up to floating-point association.
func (m *Moments) Merge(o *Moments) {
	if o.n == 0 {
		return
	}
	if m.n == 0 {
		m.n = o.n
		copy(m.mean, o.mean)
		copy(m.m2, o.m2)
		return
	}
	n := m.n + o.n
	for j := range m.mean {
		d := o.mean[j] - m.mean[j]
		m.mean[j] += d * o.n / n
		m.m2[j] += o.m2[j] + d*d*m.n*o.n/n
	}
	m.n = n
}

// Reset zeroes the accumulator in place, keeping its backing storage.
func (m *Moments) Reset() {
	m.n = 0
	for j := range m.mean {
		m.mean[j] = 0
		m.m2[j] = 0
	}
}

// ColFingerprint is the training-time summary of one column: its first
// two moments, range, and an equal-frequency quantile sketch (Edges are
// the bin cut points in the value domain, Props the training-set
// proportion falling in each of the len(Edges)+1 bins).
type ColFingerprint struct {
	Name  string    `json:"name"`
	Mean  float64   `json:"mean"`
	Std   float64   `json:"std"`
	Min   float64   `json:"min"`
	Max   float64   `json:"max"`
	Edges []float64 `json:"-"`
	Props []float64 `json:"-"`
}

// Fingerprint is the compact distributional summary of a training frame,
// stored in the model bundle so serving can score drift against the
// distribution the model was actually fitted on.
type Fingerprint struct {
	// Rows is the training row count the sketch was computed from.
	Rows int `json:"rows"`
	// Cols holds one sketch per schema column, in schema order.
	Cols []ColFingerprint `json:"cols"`
	// Streamed marks a fingerprint computed out of core: the quantile
	// edges came from the bounded-memory streaming sketch
	// (QuantileSketch) rather than an exact whole-column sort; moments,
	// min and max are exact either way. The flag travels inside the model
	// blob, so a v3 bundle records whether its fingerprint was streamed.
	Streamed bool `json:"streamed,omitempty"`
}

// FingerprintFrame sketches every column of fr: exact moments plus
// equal-frequency quantile edges (at most bins bins; 0 selects
// DefaultFingerprintBins) with the training proportions per bin. The
// construction is deterministic — per-column work fans out through the
// deterministic parallel pool keyed by column index.
func FingerprintFrame(fr *Frame, bins int) *Fingerprint {
	switch {
	case bins <= 0:
		bins = DefaultFingerprintBins
	case bins > MaxFingerprintBins:
		bins = MaxFingerprintBins
	case bins < 2:
		bins = 2
	}
	if fr.Chunked() {
		return fingerprintFrameChunked(fr, bins)
	}
	fp := &Fingerprint{Rows: fr.Rows(), Cols: make([]ColFingerprint, fr.NumCols())}
	_ = parallel.ForEach(fr.NumCols(), func(j int) error {
		fp.Cols[j] = sketchColumn(fr.Schema()[j].Name, fr.Col(j), bins)
		return nil
	})
	return fp
}

// sketchColumn computes one column's fingerprint.
func sketchColumn(name string, col []float64, bins int) ColFingerprint {
	cf := ColFingerprint{Name: name}
	if len(col) == 0 {
		cf.Props = []float64{1}
		return cf
	}
	// Two-pass mean/variance: better conditioned than sum-of-squares and
	// the fit-time cost is irrelevant.
	var sum float64
	cf.Min, cf.Max = col[0], col[0]
	for _, v := range col {
		sum += v
		if v < cf.Min {
			cf.Min = v
		}
		if v > cf.Max {
			cf.Max = v
		}
	}
	cf.Mean = sum / float64(len(col))
	var m2 float64
	for _, v := range col {
		d := v - cf.Mean
		m2 += d * d
	}
	cf.Std = math.Sqrt(m2 / float64(len(col)))

	// Equal-frequency cut points via the histogram binner's edge rule,
	// then the training occupancy of each resulting bin.
	cf.Edges = binEdges(col, nil, bins)
	cf.Props = make([]float64, len(cf.Edges)+1)
	for _, v := range col {
		cf.Props[Quantize(cf.Edges, v)]++
	}
	inv := 1 / float64(len(col))
	for b := range cf.Props {
		cf.Props[b] *= inv
	}
	return cf
}

// NumCols returns the sketched column count.
func (fp *Fingerprint) NumCols() int { return len(fp.Cols) }

// NumBins returns the sketch bin count of column j.
func (fp *Fingerprint) NumBins(j int) int { return len(fp.Cols[j].Edges) + 1 }

// Bin maps a value of column j to its sketch bin index.
func (fp *Fingerprint) Bin(j int, v float64) int {
	return int(Quantize(fp.Cols[j].Edges, v))
}

// TotalBins returns the summed bin count across columns — the flat
// occupancy-slab size drift accumulators allocate once.
func (fp *Fingerprint) TotalBins() int {
	t := 0
	for j := range fp.Cols {
		t += len(fp.Cols[j].Edges) + 1
	}
	return t
}

// Validate checks internal consistency against a schema width, and that
// every column's edges are safe for Bin: at most MaxFingerprintBins bins
// (Quantize returns a uint8) and ascending with no NaN. Equal neighbours
// are legal — the streamed sketch can emit them.
func (fp *Fingerprint) Validate(cols int) error {
	if len(fp.Cols) != cols {
		return fmt.Errorf("frame: fingerprint covers %d columns, schema has %d", len(fp.Cols), cols)
	}
	for j := range fp.Cols {
		cf := &fp.Cols[j]
		if len(cf.Props) != len(cf.Edges)+1 {
			return fmt.Errorf("frame: fingerprint column %d (%s): %d props for %d edges",
				j, cf.Name, len(cf.Props), len(cf.Edges))
		}
		if len(cf.Edges) > MaxFingerprintBins-1 {
			return fmt.Errorf("frame: fingerprint column %d (%s): %d edges, at most %d allowed",
				j, cf.Name, len(cf.Edges), MaxFingerprintBins-1)
		}
		for i, e := range cf.Edges {
			if math.IsNaN(e) || (i > 0 && e < cf.Edges[i-1]) {
				return fmt.Errorf("frame: fingerprint column %d (%s): edge %d (%v) is NaN or below its predecessor",
					j, cf.Name, i, e)
			}
		}
	}
	return nil
}
