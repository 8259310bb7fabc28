package linalg

import (
	"math/rand"
	"testing"
)

func randSym(n int, seed int64) *Matrix {
	r := rand.New(rand.NewSource(seed))
	m := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func BenchmarkJacobiEigen(b *testing.B) {
	m := randSym(40, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := JacobiEigen(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPCAFitTransform(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	x := New(500, 30)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := FitPCA(x, 10, 0)
		if err != nil {
			b.Fatal(err)
		}
		transformAll(p, x)
	}
}
