package smooth

import (
	"encoding/binary"
	"math"
	"testing"
)

// decodeSeries reinterprets the fuzz payload as a float64 series, eight
// bytes per point. Any bit pattern is allowed, so NaN, ±Inf, subnormals
// and huge magnitudes all occur naturally.
func decodeSeries(data []byte) []float64 {
	n := len(data) / 8
	if n > 4096 {
		n = 4096
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return y
}

func encodeSeries(y []float64) []byte {
	data := make([]byte, 8*len(y))
	for i, v := range y {
		binary.LittleEndian.PutUint64(data[i*8:], math.Float64bits(v))
	}
	return data
}

// FuzzSavGol asserts the filter never panics and always returns either an
// error or an output of the input's length, whatever the series contents
// (NaN, ±Inf, constant, empty, length-1) and window/order combination.
func FuzzSavGol(f *testing.F) {
	f.Add(encodeSeries(nil), 5, 2)
	f.Add(encodeSeries([]float64{1}), 5, 2)
	f.Add(encodeSeries([]float64{3, 3, 3, 3, 3, 3, 3}), 5, 2)
	f.Add(encodeSeries([]float64{math.NaN(), 1, 2, math.Inf(1), 4, 5, math.Inf(-1)}), 7, 3)
	f.Add(encodeSeries([]float64{0, 1, 4, 9, 16, 25, 36, 49, 64}), 3, 1)
	f.Add(encodeSeries([]float64{1, 2}), 2, 0)  // even window: constructor must reject
	f.Add(encodeSeries([]float64{1, 2}), 5, 7)  // order >= window: reject
	f.Add(encodeSeries([]float64{1, 2}), -3, 1) // negative window: reject

	f.Fuzz(func(t *testing.T, data []byte, window, order int) {
		y := decodeSeries(data)
		out, err := Smooth(y, window, order)
		if err != nil {
			if out != nil {
				t.Fatalf("Smooth returned both output and error %v", err)
			}
			return
		}
		if len(out) != len(y) {
			t.Fatalf("Smooth changed length: in %d out %d (window=%d order=%d)",
				len(y), len(out), window, order)
		}
		// In the realistic regime (modest window/order, bounded values) a
		// finite input series must stay finite. Outside it the linear
		// combination may legitimately overflow, so we only require the
		// length contract above.
		tame := window <= 51 && order <= 6
		for _, v := range y {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e50 {
				tame = false
				break
			}
		}
		if tame {
			for i, v := range out {
				if math.IsNaN(v) {
					t.Fatalf("NaN at %d for finite input (window=%d order=%d)", i, window, order)
				}
			}
		}
	})
}
