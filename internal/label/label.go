// Package label implements the paper's §2.2 labeling methodology: run a
// linearly increasing load experiment, relate workload intensity α to the
// observed KPI β, find the saturation knee with Kneedle, and derive the
// threshold Υ that turns raw KPI readings into binary saturation labels.
package label

import (
	"errors"
	"fmt"
	"math"

	"monitorless/internal/kneedle"
)

// Labeler converts KPI readings into binary saturation labels using the
// discovered threshold Υ.
type Labeler struct {
	// Threshold is Υ; KPI values strictly above it are "saturated".
	// +Inf means the run never saturated (no knee found).
	Threshold float64
}

// Label returns 1 (saturated) when the KPI exceeds Υ, else 0.
func (l Labeler) Label(kpi float64) int {
	if kpi > l.Threshold {
		return 1
	}
	return 0
}

// Saturates reports whether the labeler can ever produce a positive label.
func (l Labeler) Saturates() bool { return !math.IsInf(l.Threshold, 1) }

// Options tunes threshold discovery.
type Options struct {
	// Kneedle configures smoothing and curvature (§2.2 steps 1–4).
	Kneedle kneedle.Options
	// MinSharpness rejects knees whose normalized difference value is
	// below this bound — the automated stand-in for the paper's manual
	// sanity inspection of f. Default 0.08.
	MinSharpness float64
}

// ErrNoSpread mirrors kneedle.ErrFlat for callers of this package.
var ErrNoSpread = errors.New("label: KPI has no spread")

// DiscoverThreshold runs the Kneedle pipeline over the (load, kpi) curve
// of a linear-ramp experiment and returns the labeler plus the detection
// diagnostics (Figure 2's curves). When no sufficiently sharp knee exists
// the run is declared saturation-free: the labeler's threshold is +Inf.
func DiscoverThreshold(load, kpi []float64, opt Options) (Labeler, *kneedle.Result, error) {
	if len(load) != len(kpi) {
		return Labeler{}, nil, fmt.Errorf("label: %d loads vs %d KPI readings", len(load), len(kpi))
	}
	minSharp := opt.MinSharpness
	if minSharp == 0 {
		minSharp = 0.08
	}
	res, err := kneedle.Detect(load, kpi, opt.Kneedle)
	if errors.Is(err, kneedle.ErrFlat) {
		return Labeler{}, nil, ErrNoSpread
	}
	if err != nil {
		return Labeler{}, nil, fmt.Errorf("label: %w", err)
	}
	best, ok := res.Best()
	if !ok || best.Difference < minSharp {
		return Labeler{Threshold: math.Inf(1)}, res, nil
	}
	return Labeler{Threshold: best.Y}, res, nil
}
