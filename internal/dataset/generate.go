package dataset

import (
	"fmt"

	"monitorless/internal/apps"
	"monitorless/internal/cluster"
	"monitorless/internal/frame"
	"monitorless/internal/label"
	"monitorless/internal/parallel"
	"monitorless/internal/pcp"
	"monitorless/internal/workload"
)

// GenOptions controls training-data generation.
type GenOptions struct {
	// Duration is the measured seconds per run (default 900).
	Duration int
	// RampSeconds is the length of the threshold-discovery ramp (default 500).
	RampSeconds int
	// Warmup drops this many leading samples of each run (default 5).
	Warmup int
	// Seed drives workload jitter and measurement noise.
	Seed int64
	// Catalog defaults to pcp.DefaultCatalog().
	Catalog *pcp.Catalog
}

func (o GenOptions) withDefaults() GenOptions {
	if o.Duration <= 0 {
		o.Duration = 900
	}
	if o.RampSeconds <= 0 {
		o.RampSeconds = 500
	}
	if o.Warmup <= 0 {
		o.Warmup = 5
	}
	if o.Catalog == nil {
		o.Catalog = pcp.DefaultCatalog()
	}
	return o
}

// Report is the outcome of a generation pass.
type Report struct {
	// Dataset is the labeled corpus.
	Dataset *Dataset
	// Thresholds maps run ID to the Υ-labeler discovered by its ramp.
	Thresholds map[int]label.Labeler
}

// Generate executes the given Table 1 configurations (parallel partners
// together) and returns the labeled dataset. The frame layout is fixed
// before anything runs: runs in PairGroups order, each with exactly
// Duration−Warmup rows (apps.Build places one container per config).
// Independent run-config groups then simulate concurrently, each on its
// own cluster, engine and seeded collector, writing straight into their
// own disjoint spans, so the report is bit-identical to a serial pass for
// the same seed.
func Generate(cfgs []RunConfig, opt GenOptions) (*Report, error) {
	opt = opt.withDefaults()
	groups := PairGroups(cfgs)
	perRun := max(opt.Duration-opt.Warmup, 0)
	var spans []frame.Span
	first := make([]int, len(groups)) // each group's first run
	for gi, g := range groups {
		first[gi] = len(spans)
		for _, cfg := range g {
			spans = append(spans, frame.Span{ID: cfg.ID, Start: len(spans) * perRun, End: (len(spans) + 1) * perRun})
		}
	}
	if perRun == 0 {
		spans = nil // a run with no rows gets no span
	}
	ds := newDataset(opt.Catalog.CombinedDefs(), len(spans)*perRun, spans)
	parts, err := parallel.Map(len(groups), func(gi int) (map[int]label.Labeler, error) {
		return generateGroup(groups[gi], opt, ds, first[gi])
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{Dataset: ds, Thresholds: make(map[int]label.Labeler)}
	for _, part := range parts {
		for id, lab := range part {
			rep.Thresholds[id] = lab
		}
	}
	return rep, nil
}

// GenerateFrame is Generate followed by Dataset.Frame (no copy): the
// labeled corpus as one dense frame, plus each run's Υ-labeler.
func GenerateFrame(cfgs []RunConfig, opt GenOptions) (*frame.Frame, map[int]label.Labeler, error) {
	rep, err := Generate(cfgs, opt)
	if err != nil {
		return nil, nil, err
	}
	return rep.Dataset.Frame(), rep.Thresholds, nil
}

// buildGroup assembles a fresh training host running every config of the
// group under the given load patterns (one per config, aligned by index).
func buildGroup(group []RunConfig, loads []workload.Pattern) (*apps.Engine, []*apps.App, error) {
	c, err := cluster.New(apps.TrainingNode("train"))
	if err != nil {
		return nil, nil, err
	}
	var appList []*apps.App
	for i, cfg := range group {
		app, err := apps.Build(c, fmt.Sprintf("run%d", cfg.ID), loads[i], []apps.ServiceSpec{{
			Name:       cfg.Service,
			Node:       "train",
			Profile:    cfg.Profile(),
			Visit:      1,
			CPULimit:   cfg.CPULimit,
			MemLimitGB: cfg.MemLimitGB,
		}})
		if err != nil {
			return nil, nil, fmt.Errorf("dataset: build run %d: %w", cfg.ID, err)
		}
		appList = append(appList, app)
	}
	eng, err := apps.NewEngine(c, appList...)
	if err != nil {
		return nil, nil, err
	}
	return eng, appList, nil
}

// generateGroup discovers each config's Υ, then runs the measured phase
// and writes config i's rows into span first+i of ds. It touches no
// other rows, so concurrent groups never share mutable state.
func generateGroup(group []RunConfig, opt GenOptions, ds *Dataset, first int) (map[int]label.Labeler, error) {
	thresholds := make(map[int]label.Labeler)

	// --- Phase 1: simultaneous linear ramps discover each run's Υ. ----
	ramps := make([]workload.Pattern, len(group))
	for i, cfg := range group {
		from := cfg.MinRate / 10
		if from < 1 {
			from = 1
		}
		ramps[i] = workload.Ramp{From: from, To: cfg.MaxRate * 1.15, Duration: opt.RampSeconds}
	}
	eng, appList, err := buildGroup(group, ramps)
	if err != nil {
		return nil, err
	}
	offered := make([][]float64, len(group))
	observed := make([][]float64, len(group))
	eng.Run(opt.RampSeconds, func(int) {
		for i, a := range appList {
			offered[i] = append(offered[i], a.KPI.Offered)
			observed[i] = append(observed[i], a.KPI.Throughput)
		}
	})
	for i, cfg := range group {
		lab, _, err := label.DiscoverThreshold(offered[i], observed[i], label.Options{})
		if err != nil {
			return nil, fmt.Errorf("dataset: threshold for run %d: %w", cfg.ID, err)
		}
		thresholds[cfg.ID] = lab
	}

	// --- Phase 2: measured run under the Table 1 traffic. -------------
	loads := make([]workload.Pattern, len(group))
	for i, cfg := range group {
		loads[i] = cfg.Traffic(opt.Seed)
	}
	eng, appList, err = buildGroup(group, loads)
	if err != nil {
		return nil, err
	}
	agent := pcp.NewAgent(pcp.NewCollector(opt.Catalog, opt.Seed+int64(group[0].ID)*1009))

	// The topology is fixed for the whole measured run: resolve each
	// config's single container once.
	ctrs := make([]*cluster.Container, len(group))
	for i := range group {
		ctrs[i] = appList[i].Services()[0].Instances()[0].Ctr
	}
	cols := ds.fr.Cols(nil)
	labels := ds.fr.Labels()
	k := 0 // rows written per run so far
	for t := 0; t < opt.Duration; t++ {
		eng.Tick()
		ts, ok := agent.ObserveTick(eng)
		if !ok || t < opt.Warmup {
			continue
		}
		for i, ctr := range ctrs {
			sp := ds.fr.Spans()[first+i]
			ri := ts.Index(ctr)
			p := sp.Start + k
			if ri < 0 || p >= sp.End {
				return nil, fmt.Errorf("dataset: run %d: no row %d of its %d-row span at t=%d", group[i].ID, k, sp.End-sp.Start, t)
			}
			for j, v := range ts.Vector(ri) {
				cols[j][p] = v
			}
			kpi := appList[i].KPI.Throughput
			labels[p] = thresholds[group[i].ID].Label(kpi)
			ds.t[p] = int32(t)
			ds.kpi[p] = kpi
		}
		k++
	}
	if n := opt.Duration - opt.Warmup; n > 0 && k != n {
		return nil, fmt.Errorf("dataset: run %d's group produced %d rows per run for %d-row spans", group[0].ID, k, n)
	}
	return thresholds, nil
}

// BuildFunc constructs a fresh engine and target application under the
// given load; used for ramp-based threshold discovery of evaluation apps.
type BuildFunc func(load workload.Pattern) (*apps.Engine, *apps.App, error)

// ThresholdFromRamp builds the application under a linear ramp up to
// maxRate and discovers its saturation threshold Υ (§2.2, §4).
func ThresholdFromRamp(build BuildFunc, maxRate float64, seconds int) (label.Labeler, error) {
	if seconds < 20 {
		seconds = 20
	}
	eng, app, err := build(workload.Ramp{From: maxRate / 100, To: maxRate, Duration: seconds})
	if err != nil {
		return label.Labeler{}, fmt.Errorf("dataset: ramp build: %w", err)
	}
	var offered, observed []float64
	eng.Run(seconds, func(int) {
		offered = append(offered, app.KPI.Offered)
		observed = append(observed, app.KPI.Throughput)
	})
	lab, _, err := label.DiscoverThreshold(offered, observed, label.Options{})
	if err != nil {
		return label.Labeler{}, fmt.Errorf("dataset: ramp threshold: %w", err)
	}
	return lab, nil
}
