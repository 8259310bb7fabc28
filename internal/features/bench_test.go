package features

import (
	"testing"

	"monitorless/internal/dataset"
	"monitorless/internal/frame"
)

// BenchmarkPipelineFit measures the full §3.3 pipeline fit on a synthetic
// multi-run frame.
func BenchmarkPipelineFit(b *testing.B) {
	fr := synthFrame(6, 200, 1)
	for i := 0; i < b.N; i++ {
		p, err := NewPipeline(Config{
			Normalize:    true,
			Reduce1:      ReduceFilter,
			TimeFeatures: true,
			Products:     true,
			Reduce2:      ReduceFilter,
			FilterTopK:   3,
			FilterTrees:  8,
			Seed:         int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.FitFrame(fr); err != nil {
			b.Fatal(err)
		}
	}
}

// fitApply fits step on fr and returns the transformed frame.
func fitApply(b *testing.B, step Step, fr *frame.Frame) *frame.Frame {
	b.Helper()
	out, err := fitTransform(step, fr)
	if err != nil {
		b.Fatalf("%s: %v", step.Name(), err)
	}
	return out
}

// BenchmarkRFFilterFit measures the §3.3.4 filter on one Table 1 run
// (600 s, 595 rows) in the two regimes the paper layout puts it in:
// the first pass sees the standardized catalog (283 columns) and offers
// every feature at every node, so its trees keep their per-feature order
// from root to leaf; the second sees the same run after time features
// and products (> 600 columns), subsamples √d features per node and
// sorts each node for those alone.
func BenchmarkRFFilterFit(b *testing.B) {
	raw, _, err := dataset.GenerateFrame(dataset.Table1(), dataset.GenOptions{Duration: 600, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	// The first filter is fitted on the whole corpus so the second sees the
	// paper layout's width; each case then times one run's fit.
	scaled := fitApply(b, &StandardScale{}, fitApply(b, &Expand{}, raw))
	wide := fitApply(b, &Products{}, fitApply(b, &TimeFeatures{}, fitApply(b, &RFFilter{Seed: 101}, scaled)))
	if wide.NumCols() <= 600 {
		b.Fatalf("engineered width %d no longer selects the √d filter", wide.NumCols())
	}
	scaled, wide = scaled.RunView(0), wide.RunView(0)
	for _, c := range []struct {
		name string
		fr   *frame.Frame
	}{{"all-features", scaled}, {"sqrt-d", wide}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportMetric(float64(c.fr.NumCols()), "cols")
			for i := 0; i < b.N; i++ {
				if err := (&RFFilter{Seed: 211}).Fit(c.fr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// transformSink keeps BenchmarkTransformFrame's result live.
var transformSink *frame.Frame

// BenchmarkTransformFrame measures the offline feature path on a fixed
// paper-layout frame: the default pipeline, fitted once on a 600 s Table 1
// corpus, transforms a held-out corpus of the same shape (seed 2). It
// reports ns per held-out row; -benchmem gives B/op.
func BenchmarkTransformFrame(b *testing.B) {
	train, _, err := dataset.GenerateFrame(dataset.Table1(), dataset.GenOptions{Duration: 600, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	held, _, err := dataset.GenerateFrame(dataset.Table1(), dataset.GenOptions{Duration: 600, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewPipeline(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.FitFrame(train); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if transformSink, err = p.TransformFrame(held); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*held.Rows()), "ns/row")
}
