package smooth

import (
	"math"
	"testing"
)

func BenchmarkSavGolApply(b *testing.B) {
	y := make([]float64, 1000)
	for i := range y {
		y[i] = math.Sin(float64(i) / 50)
	}
	f, err := NewSavGol(21, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Apply(y); err != nil {
			b.Fatal(err)
		}
	}
}
