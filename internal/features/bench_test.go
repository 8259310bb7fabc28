package features

import "testing"

// BenchmarkPipelineFit measures the full §3.3 pipeline fit on a synthetic
// multi-run table.
func BenchmarkPipelineFit(b *testing.B) {
	tab := synthTable(6, 200, 1)
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
		if _, err := p.Fit(tab); err != nil {
			b.Fatal(err)
		}
	}
}
