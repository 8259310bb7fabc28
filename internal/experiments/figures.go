package experiments

import (
	"fmt"
	"sort"

	"monitorless/internal/apps"
	"monitorless/internal/cluster"
	"monitorless/internal/kneedle"
	"monitorless/internal/label"
	"monitorless/internal/workload"
)

// Figure2Data reproduces the paper's Figure 2: the observed throughput of
// a linearly increasing load run, its smoothed curve, the normalized
// difference curve β−α, and the chosen knee.
type Figure2Data struct {
	// Loads and Observed are the raw (α, β) points.
	Loads, Observed []float64
	// Smoothed is the Savitzky-Golay curve.
	Smoothed []float64
	// Difference is the normalized β−α curve.
	Difference []float64
	// KneeX / KneeY locate the selected saturation point; ThresholdY is Υ.
	KneeX, KneeY float64
	ThresholdY   float64
}

// Figure2 runs the labeling walk-through on the Table 1 run-1 setup
// (Solr, 3 cores) with a linear ramp, exactly as §2.2 describes.
func Figure2(s Scale) (*Figure2Data, error) {
	build := func(load workload.Pattern) (*apps.Engine, *apps.App, error) {
		c, err := cluster.New(apps.TrainingNode("host"))
		if err != nil {
			return nil, nil, err
		}
		app, err := apps.Build(c, "fig2", load, []apps.ServiceSpec{
			{Name: "solr", Node: "host", Profile: apps.SolrProfile(), Visit: 1, CPULimit: 3},
		})
		if err != nil {
			return nil, nil, err
		}
		eng, err := apps.NewEngine(c, app)
		return eng, app, err
	}

	seconds := s.RampSeconds
	if seconds < 100 {
		seconds = 100
	}
	eng, app, err := build(workload.Ramp{From: 10, To: 1200, Duration: seconds})
	if err != nil {
		return nil, err
	}
	var loads, observed []float64
	eng.Run(seconds, func(int) {
		loads = append(loads, app.KPI.Offered)
		observed = append(observed, app.KPI.Throughput)
	})

	res, err := kneedle.Detect(loads, observed, kneedle.Options{})
	if err != nil {
		return nil, fmt.Errorf("experiments: figure2 kneedle: %w", err)
	}
	lab, _, err := label.DiscoverThreshold(loads, observed, label.Options{})
	if err != nil {
		return nil, fmt.Errorf("experiments: figure2 threshold: %w", err)
	}
	best, ok := res.Best()
	if !ok {
		return nil, fmt.Errorf("experiments: figure2 found no knee")
	}
	return &Figure2Data{
		Loads:      loads,
		Observed:   observed,
		Smoothed:   res.Smoothed,
		Difference: res.Difference,
		KneeX:      best.X,
		KneeY:      best.Y,
		ThresholdY: lab.Threshold,
	}, nil
}

// DotKind classifies one Figure 3 marker.
type DotKind int

// Figure 3 marker kinds: green TP₂, yellow FP₂, red FN₂.
const (
	DotTP DotKind = iota
	DotFP
	DotFN
)

// String implements fmt.Stringer.
func (d DotKind) String() string {
	switch d {
	case DotTP:
		return "TP"
	case DotFP:
		return "FP"
	default:
		return "FN"
	}
}

// Dot is one Figure 3 marker.
type Dot struct {
	// T indexes into the recorded tick series.
	T int
	// Kind is TP/FP/FN (lagged semantics).
	Kind DotKind
}

// Figure3Data carries the per-service prediction markers plus the
// workload and response-time curves of the TeaStore run.
type Figure3Data struct {
	// Times, Load, RT are the shared x-axis and the gray/purple curves.
	Times []int
	Load  []float64
	RT    []float64
	// Services lists the service rows in display order; Dots maps each
	// service to its markers. The synthetic "APP" row carries the FN₂
	// markers, which cannot be attributed to a single service (§4.2.2).
	Services []string
	Dots     map[string][]Dot
}

// Figure3 classifies each service's predictions against the application
// ground truth with the lagged (k=2) semantics and collects the markers.
func Figure3(data *EvalData, perInst map[string][]int) *Figure3Data {
	// Aggregate instance predictions per service.
	perService := map[string][]int{}
	for id, series := range perInst {
		svc := data.ServiceOf[id]
		agg := perService[svc]
		if agg == nil {
			agg = make([]int, len(series))
			perService[svc] = agg
		}
		for t, p := range series {
			if p == 1 {
				agg[t] = 1
			}
		}
	}

	fig := &Figure3Data{
		Times: data.Times,
		Load:  data.Loads,
		RT:    data.RTs,
		Dots:  map[string][]Dot{},
	}
	for svc := range perService {
		fig.Services = append(fig.Services, svc)
	}
	sort.Strings(fig.Services)

	truth := data.Truth
	n := len(truth)
	for _, svc := range fig.Services {
		pred := perService[svc]
		for t := 0; t < n; t++ {
			if pred[t] != 1 {
				continue
			}
			switch {
			case truth[t] == 1:
				fig.Dots[svc] = append(fig.Dots[svc], Dot{T: t, Kind: DotTP})
			case upcomingSaturation(truth, t, Lag):
				// Early warning within the lag window: counted as TN₂ in
				// the metric; shown green here because it was vindicated.
				fig.Dots[svc] = append(fig.Dots[svc], Dot{T: t, Kind: DotTP})
			default:
				fig.Dots[svc] = append(fig.Dots[svc], Dot{T: t, Kind: DotFP})
			}
		}
	}

	// FN₂ markers at the application level.
	appPred := make([]int, n)
	for _, series := range perService {
		for t, p := range series {
			if p == 1 {
				appPred[t] = 1
			}
		}
	}
	const appRow = "APP"
	fig.Services = append(fig.Services, appRow)
	for t := 0; t < n; t++ {
		if truth[t] == 1 && appPred[t] == 0 && !recentPositive(appPred, t, Lag) {
			fig.Dots[appRow] = append(fig.Dots[appRow], Dot{T: t, Kind: DotFN})
		}
	}
	return fig
}

func upcomingSaturation(truth []int, t, k int) bool {
	for dt := 1; dt <= k && t+dt < len(truth); dt++ {
		if truth[t+dt] == 1 {
			return true
		}
	}
	return false
}

func recentPositive(pred []int, t, k int) bool {
	for dt := 1; dt <= k && t-dt >= 0; dt++ {
		if pred[t-dt] == 1 {
			return true
		}
	}
	return false
}
