package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConstant(t *testing.T) {
	p := Constant{Rate: 42}
	for _, tt := range []int{0, 1, 100, 99999} {
		if p.At(tt) != 42 {
			t.Fatalf("At(%d) = %v, want 42", tt, p.At(tt))
		}
	}
}

func TestRamp(t *testing.T) {
	p := Ramp{From: 0, To: 100, Duration: 100}
	if p.At(0) != 0 {
		t.Errorf("At(0) = %v, want 0", p.At(0))
	}
	if p.At(50) != 50 {
		t.Errorf("At(50) = %v, want 50", p.At(50))
	}
	if p.At(100) != 100 || p.At(500) != 100 {
		t.Error("ramp must hold To after Duration")
	}
	if p.At(-5) != 0 {
		t.Errorf("At(-5) = %v, want From", p.At(-5))
	}
}

func TestRampMonotone(t *testing.T) {
	p := Ramp{From: 10, To: 1000, Duration: 300}
	prev := p.At(0)
	for tt := 1; tt < 400; tt++ {
		v := p.At(tt)
		if v < prev {
			t.Fatalf("ramp decreased at %d: %v < %v", tt, v, prev)
		}
		prev = v
	}
}

func TestSineRange(t *testing.T) {
	p := Sine{Min: 1, Max: 1000, Period: 600}
	lo, hi := math.Inf(1), math.Inf(-1)
	for tt := 0; tt < 600; tt++ {
		v := p.At(tt)
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if math.Abs(lo-1) > 1 || math.Abs(hi-1000) > 1 {
		t.Errorf("sine range [%v, %v], want [1, 1000]", lo, hi)
	}
	// Starts at the minimum (the paper's runs ramp up from idle).
	if p.At(0) > 2 {
		t.Errorf("At(0) = %v, want ~Min", p.At(0))
	}
}

func TestSineDefaultPeriod(t *testing.T) {
	p := Sine{Min: 0, Max: 10}
	if v := p.At(0); math.IsNaN(v) {
		t.Fatal("zero period must not produce NaN")
	}
}

func TestSineNoiseDeterministicAndBounded(t *testing.T) {
	p := SineNoise{Sine: Sine{Min: 1, Max: 1000, Period: 600}, NoiseFrac: 0.3, Seed: 7}
	for tt := 0; tt < 1200; tt++ {
		v1, v2 := p.At(tt), p.At(tt)
		if v1 != v2 {
			t.Fatal("SineNoise is not deterministic")
		}
		if v1 < 0 {
			t.Fatalf("negative rate %v at %d", v1, tt)
		}
	}
}

func TestSineNoiseActuallyNoisy(t *testing.T) {
	base := Sine{Min: 1, Max: 1000, Period: 600}
	noisy := SineNoise{Sine: base, NoiseFrac: 0.3, Seed: 7}
	diff := 0.0
	for tt := 0; tt < 600; tt++ {
		diff += math.Abs(noisy.At(tt) - base.At(tt))
	}
	if diff < 1000 {
		t.Errorf("noise too small: total abs diff %v", diff)
	}
}

func TestSteps(t *testing.T) {
	p := Steps{Levels: []float64{10, 20, 30}, StepLen: 5}
	if p.At(0) != 10 || p.At(4) != 10 {
		t.Error("first step wrong")
	}
	if p.At(5) != 20 || p.At(14) != 30 {
		t.Error("later steps wrong")
	}
	if p.At(15) != 10 {
		t.Error("steps must cycle")
	}
	if (Steps{}).At(3) != 0 {
		t.Error("empty steps must yield 0")
	}
}

func TestCloudTraceProperties(t *testing.T) {
	p := CloudTrace{Base: 100, DayPeriod: 2000, Seed: 3}
	var sum, peak float64
	n := 6000
	for tt := 0; tt < n; tt++ {
		v := p.At(tt)
		if v < 0 {
			t.Fatalf("negative rate at %d", tt)
		}
		sum += v
		peak = math.Max(peak, v)
	}
	mean := sum / float64(n)
	if mean < 50 || mean > 200 {
		t.Errorf("mean %v far from base 100", mean)
	}
	if peak < 1.5*mean {
		t.Errorf("peak %v not bursty relative to mean %v", peak, mean)
	}
}

func TestLocustHatch(t *testing.T) {
	p := LocustHatch{MaxUsers: 700, RatePerUser: 1, Start: 1000, HatchDuration: 700, HoldDuration: 300}
	if p.At(999) != 0 {
		t.Error("rate before start must be 0")
	}
	if p.At(1000) != 0 {
		t.Error("rate at start must be 0 (no users hatched)")
	}
	if v := p.At(1350); math.Abs(v-350) > 1 {
		t.Errorf("mid-hatch rate %v, want ~350", v)
	}
	if v := p.At(1800); v != 700 {
		t.Errorf("hold rate %v, want 700", v)
	}
	if p.At(2100) != 0 {
		t.Error("rate after the run must be 0")
	}
}

func TestMixes(t *testing.T) {
	for _, m := range []Mix{MixA, MixB, MixD, MixF} {
		total := m.Read + m.Update + m.Insert + m.RMW
		if math.Abs(total-1) > 1e-12 {
			t.Errorf("mix %s fractions sum to %v", m.Name, total)
		}
		if m.WriteFraction() < 0 || m.WriteFraction() > 1 {
			t.Errorf("mix %s write fraction %v out of range", m.Name, m.WriteFraction())
		}
	}
	if MixA.WriteFraction() != 0.5 || MixB.WriteFraction() != 0.05 {
		t.Error("A/B write fractions do not match YCSB")
	}
}

func TestJitteredNonNegativeAndDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		p := NewJittered(Sine{Min: 0, Max: 100, Period: 60}, 0.5, seed)
		for tt := 0; tt < 120; tt++ {
			v := p.At(tt)
			if v < 0 || v != p.At(tt) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestHashNoiseRange(t *testing.T) {
	f := func(seed int64, tt int) bool {
		if tt < 0 {
			tt = -tt
		}
		v := hashNoise(seed, tt)
		return v >= -1 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPatternFunc(t *testing.T) {
	p := PatternFunc(func(t int) float64 { return float64(t) * 2 })
	if p.At(21) != 42 {
		t.Errorf("PatternFunc At = %v, want 42", p.At(21))
	}
}
