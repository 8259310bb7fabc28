package frame

import (
	"fmt"
	"math"

	"monitorless/internal/parallel"
)

// This file is the statistical half of the model-lifecycle plane: a
// compact training fingerprint (per-column mean/var plus a quantile
// sketch) computed once at fit time. Serving compares rolling moments
// and bin occupancies (internal/lifecycle) against the fingerprint to
// score feature-distribution drift (standardized mean shift, PSI)
// without retaining any raw samples.

// DefaultFingerprintBins is the quantile-sketch resolution used when a
// caller passes 0 — ten equal-frequency bins, the conventional PSI
// binning.
const DefaultFingerprintBins = 10

// MaxFingerprintBins bounds the sketch resolution.
const MaxFingerprintBins = 64

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

	// watch is the ascending list of columns drift observation covers;
	// nil means all of them. It is derived from the pipeline a model
	// pairs the fingerprint with (SetWatch), never serialized — gob and
	// JSON skip unexported fields, so bundle bytes do not depend on it.
	watch []int32
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

// SetWatch restricts drift observation to the columns live marks true —
// the raw inputs the model's pipeline can actually read. A nil mask, or
// one that does not match the column count, watches every column. Call
// it while the fingerprint is still private to the model being
// assembled; observers read the list without synchronization.
func (fp *Fingerprint) SetWatch(live []bool) {
	fp.watch = nil
	if live == nil || len(live) != len(fp.Cols) {
		return
	}
	fp.watch = make([]int32, 0, len(live))
	for j, on := range live {
		if on {
			fp.watch = append(fp.watch, int32(j))
		}
	}
}

// Watched returns the ascending indices of the columns drift observation
// covers: the SetWatch list, or every column when there is none.
func (fp *Fingerprint) Watched() []int32 {
	if fp.watch != nil {
		return fp.watch
	}
	all := make([]int32, len(fp.Cols))
	for j := range all {
		all[j] = int32(j)
	}
	return all
}

// Validate checks internal consistency against a schema width, and that
// every column's edges are safe to search: at most MaxFingerprintBins bins
// (Quantize returns a uint8) and ascending with no NaN. Equal neighbours
// are legal: bundles from builds that sketched out-of-core corpora
// carry them.
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
