// Package workload models the load-intensity profiles used by the paper's
// training and evaluation runs: LIMBO-style sine curves (sin1000,
// sinnoise1000), constant YCSB target rates, linear ramps for threshold
// discovery, the bursty multi-daily cloud trace of §4.2 (shaped after Shen
// et al.'s business-critical workload characterization), and Locust-style
// hatch profiles for Sockshop.
//
// A Pattern maps a time step (seconds) to an arrival rate (requests/s).
// All patterns are deterministic: "random" noise derives from a seed.
package workload

import "math"

// Pattern yields the offered request rate at second t.
type Pattern interface {
	// At returns the arrival rate (requests/s) at time t. Implementations
	// must be deterministic and safe for concurrent use.
	At(t int) float64
}

// PatternFunc adapts a function to the Pattern interface.
type PatternFunc func(t int) float64

// At implements Pattern.
func (f PatternFunc) At(t int) float64 { return f(t) }

// Constant is a fixed-rate pattern (YCSB constant target loads).
type Constant struct {
	// Rate is the constant arrival rate.
	Rate float64
}

// At implements Pattern.
func (c Constant) At(int) float64 { return c.Rate }

// Ramp rises linearly from From to To over Duration seconds, then holds To.
// The paper's threshold-discovery experiment (§2.2) uses a linear ramp.
type Ramp struct {
	From, To float64
	Duration int
}

// At implements Pattern.
func (r Ramp) At(t int) float64 {
	if r.Duration <= 0 || t >= r.Duration {
		return r.To
	}
	if t < 0 {
		return r.From
	}
	return r.From + (r.To-r.From)*float64(t)/float64(r.Duration)
}

// Sine is the LIMBO sin1000 shape: a sine between Min and Max with the
// given period.
type Sine struct {
	Min, Max float64
	Period   int
}

// At implements Pattern.
func (s Sine) At(t int) float64 {
	period := s.Period
	if period <= 0 {
		period = 3600
	}
	phase := 2 * math.Pi * float64(t) / float64(period)
	mid := (s.Min + s.Max) / 2
	amp := (s.Max - s.Min) / 2
	return mid + amp*math.Sin(phase-math.Pi/2) // start at Min
}

// SineNoise is the LIMBO sinnoise1000 shape: Sine massively perturbed with
// deterministic multiplicative noise.
type SineNoise struct {
	Sine
	// NoiseFrac is the noise amplitude as a fraction of the local rate
	// (the paper "massively modified by adding random noise").
	NoiseFrac float64
	// Seed selects the noise realization.
	Seed int64
}

// At implements Pattern.
func (s SineNoise) At(t int) float64 {
	base := s.Sine.At(t)
	frac := s.NoiseFrac
	if frac == 0 {
		frac = 0.3
	}
	v := base * (1 + frac*hashNoise(s.Seed, t))
	if v < 0 {
		return 0
	}
	return v
}

// Steps cycles through fixed levels, holding each for StepLen seconds.
type Steps struct {
	Levels  []float64
	StepLen int
}

// At implements Pattern.
func (s Steps) At(t int) float64 {
	if len(s.Levels) == 0 {
		return 0
	}
	sl := s.StepLen
	if sl <= 0 {
		sl = 60
	}
	if t < 0 {
		t = 0
	}
	return s.Levels[(t/sl)%len(s.Levels)]
}

// CloudTrace is the §4.2 evaluation workload: a realistic worst-case cloud
// arrival process with multiple daily patterns, high variance and bursts
// (after Shen, van Beek & Iosup, CCGrid '15).
type CloudTrace struct {
	// Base is the mean rate.
	Base float64
	// DayPeriod compresses one synthetic "day" into this many seconds.
	DayPeriod int
	// BurstFrac is the amplitude of superimposed bursts (default 0.6).
	BurstFrac float64
	// Seed selects the noise and burst realization.
	Seed int64
}

// At implements Pattern.
func (c CloudTrace) At(t int) float64 {
	day := c.DayPeriod
	if day <= 0 {
		day = 2000
	}
	burst := c.BurstFrac
	if burst == 0 {
		burst = 0.6
	}
	phase := 2 * math.Pi * float64(t) / float64(day)
	// Two superimposed daily harmonics plus a slower weekly-ish drift.
	shape := 1 +
		0.45*math.Sin(phase-math.Pi/2) +
		0.2*math.Sin(2*phase+1.1) +
		0.1*math.Sin(phase/7)
	// Bursts: occasional sustained spikes gated by a slow hash signal.
	gate := hashNoise(c.Seed*31+7, t/40)
	spike := 0.0
	if gate > 0.62 {
		spike = burst * (gate - 0.62) / 0.38
	}
	noise := 0.12 * hashNoise(c.Seed, t)
	v := c.Base * (shape + spike + noise)
	if v < 0 {
		return 0
	}
	return v
}

// LocustHatch models one Locust run: clients hatch linearly from 0 to
// MaxUsers over HatchDuration, hold for HoldDuration, then stop. Start
// offsets the run in time. The produced rate is users × RatePerUser.
type LocustHatch struct {
	MaxUsers      float64
	RatePerUser   float64
	Start         int
	HatchDuration int
	HoldDuration  int
}

// At implements Pattern.
func (l LocustHatch) At(t int) float64 {
	dt := t - l.Start
	if dt < 0 {
		return 0
	}
	rate := l.RatePerUser
	if rate == 0 {
		rate = 1
	}
	switch {
	case dt < l.HatchDuration:
		return l.MaxUsers * rate * float64(dt) / float64(l.HatchDuration)
	case dt < l.HatchDuration+l.HoldDuration:
		return l.MaxUsers * rate
	default:
		return 0
	}
}

// Sum superimposes patterns (the paper's three overlapping Locust runs).
type Sum []Pattern

// At implements Pattern.
func (s Sum) At(t int) float64 {
	total := 0.0
	for _, p := range s {
		total += p.At(t)
	}
	return total
}

// hashNoise returns a deterministic pseudo-random value in [-1, 1] for a
// (seed, t) pair. A fresh PRNG per point keeps patterns stateless and
// safe for concurrent use.
func hashNoise(seed int64, t int) float64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(t)*0xBF58476D1CE4E5B9
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return 2*float64(h)/float64(math.MaxUint64) - 1
}

// Mix describes the YCSB read/write composition of a workload. The four
// core workload classes from the paper's Table 1 are exposed as variables.
type Mix struct {
	// Name identifies the mix ("A", "B", "D", "F").
	Name string
	// Read, Update, Insert, RMW are operation fractions summing to 1.
	Read, Update, Insert, RMW float64
}

// The paper's Cassandra training runs use the YCSB core workloads:
// A update-heavy, B read-heavy, D read-latest with inserts, F
// read-modify-write.
var (
	MixA = Mix{Name: "A", Read: 0.5, Update: 0.5}
	MixB = Mix{Name: "B", Read: 0.95, Update: 0.05}
	MixD = Mix{Name: "D", Read: 0.95, Insert: 0.05}
	MixF = Mix{Name: "F", Read: 0.5, RMW: 0.5}
)

// WriteFraction returns the fraction of operations that hit the write path
// (updates, inserts and the write half of each RMW).
func (m Mix) WriteFraction() float64 { return m.Update + m.Insert + m.RMW }

// NewJittered wraps p with small multiplicative noise, used to decorrelate
// repeated runs of the same configuration.
func NewJittered(p Pattern, frac float64, seed int64) Pattern {
	return PatternFunc(func(t int) float64 {
		v := p.At(t) * (1 + frac*hashNoise(seed, t))
		if v < 0 {
			return 0
		}
		return v
	})
}
