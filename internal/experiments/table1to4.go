package experiments

import (
	"fmt"
	"time"

	"monitorless/internal/core"
	"monitorless/internal/dataset"
	"monitorless/internal/frame"
	"monitorless/internal/ml"
	"monitorless/internal/ml/boost"
	"monitorless/internal/ml/cv"
	"monitorless/internal/ml/forest"
	"monitorless/internal/ml/linear"
	"monitorless/internal/ml/nn"
	"monitorless/internal/ml/score"
	"monitorless/internal/ml/tree"
	"monitorless/internal/parallel"
)

// Table1Row summarizes one generated training run.
type Table1Row struct {
	ID          int
	Service     string
	Traffic     string
	Bottleneck  string
	Samples     int
	Saturated   float64
	ThresholdY  float64
	NeverSat    bool
	ParallelRun int
}

// Table1Summary reports what the Table 1 generation produced.
func Table1Summary(ctx *Context) []Table1Row {
	var rows []Table1Row
	for _, cfg := range dataset.Table1() {
		sub := ctx.Report.Dataset.FilterRuns(cfg.ID)
		lab := ctx.Report.Thresholds[cfg.ID]
		rows = append(rows, Table1Row{
			ID:          cfg.ID,
			Service:     cfg.Service,
			Traffic:     cfg.TrafficDesc,
			Bottleneck:  cfg.Bottleneck,
			Samples:     sub.Frame().Rows(),
			Saturated:   sub.SaturatedFraction(),
			ThresholdY:  lab.Threshold,
			NeverSat:    !lab.Saturates(),
			ParallelRun: cfg.Par,
		})
	}
	return rows
}

// AlgorithmSpec names one Table 3 contender and how to build it from a
// hyper-parameter assignment.
type AlgorithmSpec struct {
	// Name matches the paper's Table 3 row.
	Name string
	// Grid is the (scaled) Table 2 parameter space.
	Grid cv.Grid
	// Build constructs the classifier from an assignment.
	Build cv.Factory
}

// Algorithms returns the paper's six contenders with their Table 2 grids.
// lite shrinks each axis to the paper's chosen value plus one alternative.
func Algorithms(s Scale) []AlgorithmSpec {
	pick := func(all []any, lite []any) []any {
		if s.GridLite {
			return lite
		}
		return all
	}
	seed := s.Seed
	return []AlgorithmSpec{
		{
			Name: "SVC",
			Grid: cv.Grid{
				"C":            pick([]any{0.1, 1.0, 10.0}, []any{10.0, 1.0}),
				"tol":          pick([]any{0.01, 0.0001, 0.00001}, []any{0.01}),
				"penalty":      pick([]any{"l1", "l2"}, []any{"l1"}),
				"class_weight": pick([]any{"balanced", ""}, []any{""}),
			},
			Build: func(p map[string]any) (ml.Classifier, error) {
				pen := linear.L2
				if cv.Str(p, "penalty", "l1") == "l1" {
					pen = linear.L1
				}
				return linear.NewSVC(linear.SVCConfig{
					C:           cv.Float(p, "C", 10),
					Tol:         cv.Float(p, "tol", 0.01),
					Penalty:     pen,
					ClassWeight: cv.Str(p, "class_weight", ""),
					MaxEpochs:   20,
					Seed:        seed,
				}), nil
			},
		},
		{
			Name: "Logistic Regression",
			Grid: cv.Grid{
				"C":            pick([]any{0.01, 0.1, 1.0}, []any{1.0, 0.1}),
				"tol":          pick([]any{0.1, 0.01, 0.001, 0.0001}, []any{0.0001}),
				"class_weight": pick([]any{"balanced", ""}, []any{""}),
			},
			Build: func(p map[string]any) (ml.Classifier, error) {
				return linear.NewLogReg(linear.LogRegConfig{
					C:           cv.Float(p, "C", 1),
					Tol:         cv.Float(p, "tol", 1e-4),
					ClassWeight: cv.Str(p, "class_weight", ""),
					MaxEpochs:   20,
					Seed:        seed,
				}), nil
			},
		},
		{
			Name: "AdaBoost",
			Grid: cv.Grid{
				"n_estimators":         pick([]any{50, 250}, []any{50}),
				"algorithm":            pick([]any{"SAMME", "SAMME.R"}, []any{"SAMME", "SAMME.R"}),
				"DT_criterion":         pick([]any{"gini", "entropy"}, []any{"gini"}),
				"DT_splitter":          pick([]any{"random", "best"}, []any{"best"}),
				"DT_min_samples_split": pick([]any{5, 10, 20}, []any{5}),
			},
			Build: func(p map[string]any) (ml.Classifier, error) {
				variant := boost.SAMME
				if cv.Str(p, "algorithm", "SAMME") == "SAMME.R" {
					variant = boost.SAMMER
				}
				crit := tree.Gini
				if cv.Str(p, "DT_criterion", "gini") == "entropy" {
					crit = tree.Entropy
				}
				split := tree.Best
				if cv.Str(p, "DT_splitter", "best") == "random" {
					split = tree.Random
				} else if s.Splitter == tree.Hist {
					// The scale-level hist request replaces the exact
					// "best" scans; "random" stays random (it is its own
					// grid axis, not a split-search strategy variant).
					split = tree.Hist
				}
				return boost.NewAdaBoost(boost.AdaBoostConfig{
					NumEstimators:       cv.Int(p, "n_estimators", 50),
					Variant:             variant,
					TreeCriterion:       crit,
					TreeSplitter:        split,
					TreeBins:            s.Bins,
					TreeMinSamplesSplit: cv.Int(p, "DT_min_samples_split", 5),
					TreeMaxDepth:        3,
					Seed:                seed,
				}), nil
			},
		},
		{
			Name: "Neural Net",
			Grid: cv.Grid{
				"activation_function1": pick([]any{"softmax", "relu", "sigmoid", "linear"}, []any{"relu"}),
				"activation_function2": pick([]any{"softmax", "relu", "sigmoid", "linear"}, []any{"relu", "sigmoid"}),
				"activation_function3": pick([]any{"softmax", "relu", "sigmoid", "linear"}, []any{"sigmoid"}),
			},
			Build: func(p map[string]any) (ml.Classifier, error) {
				return nn.New(nn.Config{
					Hidden1: 64, Hidden2: 32,
					Act1:   nn.Activation(cv.Str(p, "activation_function1", "relu")),
					Act2:   nn.Activation(cv.Str(p, "activation_function2", "relu")),
					Act3:   nn.Activation(cv.Str(p, "activation_function3", "sigmoid")),
					Epochs: 15,
					Seed:   seed,
				}), nil
			},
		},
		{
			Name: "XGBoost",
			Grid: cv.Grid{
				"min_child_weight": pick([]any{1.0, 4.0, 16.0, 64.0}, []any{64.0, 1.0}),
				"max_depth":        pick([]any{1, 4, 16, 64}, []any{4}),
				"gamma":            pick([]any{0.0, 1.0, 4.0, 16.0}, []any{0.0}),
			},
			Build: func(p map[string]any) (ml.Classifier, error) {
				return boost.NewGBT(boost.GBTConfig{
					NumRounds:      60,
					MaxDepth:       cv.Int(p, "max_depth", 16),
					MinChildWeight: cv.Float(p, "min_child_weight", 1),
					Gamma:          cv.Float(p, "gamma", 0),
					// Row and column subsampling are XGBoost's standard
					// regularizers against the per-run memorization that
					// breaks transfer to unseen services.
					Subsample:       0.7,
					ColsampleByTree: 0.4,
					Hist:            s.Splitter == tree.Hist,
					Bins:            s.Bins,
					Seed:            seed,
				}), nil
			},
		},
		{
			Name: "Random Forest",
			Grid: cv.Grid{
				"n_estimators":      pick([]any{250, 500, 1000}, []any{s.Trees}),
				"min_samples_leaf":  pick([]any{5, 10, 20, 30}, []any{s.MinSamplesLeaf}),
				"min_samples_split": pick([]any{5, 10, 20, 30}, []any{5, 20}),
				"criterion":         pick([]any{"gini", "entropy"}, []any{"entropy"}),
				"class_weight":      pick([]any{"balanced", "subsample", ""}, []any{""}),
			},
			Build: func(p map[string]any) (ml.Classifier, error) {
				crit := tree.Gini
				if cv.Str(p, "criterion", "entropy") == "entropy" {
					crit = tree.Entropy
				}
				trees := cv.Int(p, "n_estimators", s.Trees)
				if s.GridLite && trees > s.Trees {
					trees = s.Trees
				}
				return forest.New(forest.Config{
					NumTrees:        trees,
					MinSamplesLeaf:  cv.Int(p, "min_samples_leaf", s.MinSamplesLeaf),
					MinSamplesSplit: cv.Int(p, "min_samples_split", 5),
					Criterion:       crit,
					ClassWeight:     cv.Str(p, "class_weight", ""),
					Splitter:        s.Splitter,
					Bins:            s.Bins,
					Seed:            seed,
				}), nil
			},
		},
	}
}

// Table2Row is one algorithm's grid-search outcome.
type Table2Row struct {
	Algorithm  string
	BestParams map[string]any
	MeanF1     float64
	Evaluated  int
}

// Table2 runs the §3.4 hyper-parameter grid search: grouped 5-fold CV over
// the training runs for every assignment of every algorithm's grid.
// maxRows subsamples the engineered training set to bound runtime (0 = all).
// The six algorithms fan out over the shared pool (and each grid search
// parallelizes its candidates in turn); rows come back in algorithm order.
func Table2(ctx *Context, maxRows int) ([]Table2Row, error) {
	fr, err := engineeredTrainingFrame(ctx, maxRows)
	if err != nil {
		return nil, err
	}
	specs := Algorithms(ctx.Scale)
	return parallel.Map(len(specs), func(i int) (Table2Row, error) {
		spec := specs[i]
		results, err := cv.GridSearchFrame(spec.Build, spec.Grid, fr, nil, 5)
		if err != nil {
			return Table2Row{}, fmt.Errorf("experiments: grid %s: %w", spec.Name, err)
		}
		return Table2Row{
			Algorithm:  spec.Name,
			BestParams: results[0].Params,
			MeanF1:     results[0].MeanF1,
			Evaluated:  len(results),
		}, nil
	})
}

// engineeredTrainingFrame transforms the Table 1 corpus through the fitted
// pipeline and optionally subsamples rows (strided, run-preserving). The
// result is one shared read-only frame; the grid searches fit index views
// of it and never copy the feature matrix per fold.
func engineeredTrainingFrame(ctx *Context, maxRows int) (*frame.Frame, error) {
	engineered, err := ctx.Model.Pipeline.TransformFrame(ctx.Report.Dataset.Frame())
	if err != nil {
		return nil, fmt.Errorf("experiments: engineer training set: %w", err)
	}
	if maxRows <= 0 || engineered.Rows() <= maxRows {
		return engineered, nil
	}
	stride := (engineered.Rows() + maxRows - 1) / maxRows
	idx := make([]int, 0, maxRows)
	for i := 0; i < engineered.Rows(); i += stride {
		idx = append(idx, i)
	}
	return subsampleGrouped(engineered, idx), nil
}

// subsampleGrouped gathers the (increasing) row indices into a fresh frame,
// rebuilding run spans so grouped CV still sees the run structure.
func subsampleGrouped(fr *frame.Frame, idx []int) *frame.Frame {
	gids := fr.GroupIDs()
	var spans []frame.Span
	labels := fr.Labels()
	var subLabels []int
	if labels != nil {
		subLabels = make([]int, len(idx))
	}
	for p, i := range idx {
		if p == 0 || gids[i] != gids[idx[p-1]] {
			spans = append(spans, frame.Span{ID: gids[i], Start: p, End: p + 1})
		} else {
			spans[len(spans)-1].End = p + 1
		}
		if labels != nil {
			subLabels[p] = labels[i]
		}
	}
	out := frame.NewDense(fr.Schema(), len(idx), spans, subLabels)
	for j := 0; j < fr.NumCols(); j++ {
		src, dst := fr.Col(j), out.Col(j)
		for p, i := range idx {
			dst[p] = src[i]
		}
	}
	return out
}

// Table3Row is one algorithm comparison row: training time, per-sample
// classification time and F1₂ on the first validation set (Elgg).
type Table3Row struct {
	Algorithm    string
	TrainTime    time.Duration
	ClassifyTime time.Duration // per sample
	F1           float64
	Confusion    score.Confusion
}

// Table3 trains each contender (at the paper's chosen hyper-parameters)
// on the engineered Table 1 corpus and scores it on the Elgg validation
// run with the lagged F1₂ metric. The contenders run serially on purpose:
// this table's point is the per-algorithm train/classify wall-clock, and
// concurrent fits would contend for cores and distort those timings.
func Table3(ctx *Context, elgg *EvalData) ([]Table3Row, error) {
	fr, err := engineeredTrainingFrame(ctx, 0)
	if err != nil {
		return nil, err
	}
	var rows []Table3Row
	for _, spec := range Algorithms(ctx.Scale) {
		clf, err := spec.Build(chosenParams(spec.Name, ctx.Scale))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := clf.FitFrame(fr, nil, nil); err != nil {
			return nil, fmt.Errorf("experiments: table3 fit %s: %w", spec.Name, err)
		}
		trainTime := time.Since(start)

		start = time.Now()
		pred, err := elgg.ClassifierPredictions(ctx.Model.Pipeline, clf)
		if err != nil {
			return nil, fmt.Errorf("experiments: table3 eval %s: %w", spec.Name, err)
		}
		classified := len(pred) * len(elgg.InstIDs)
		perSample := time.Duration(0)
		if classified > 0 {
			perSample = time.Since(start) / time.Duration(classified)
		}
		c, err := score.CountLagged(pred, elgg.Truth, 2)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{
			Algorithm:    spec.Name,
			TrainTime:    trainTime,
			ClassifyTime: perSample,
			F1:           c.F1(),
			Confusion:    c,
		})
	}
	return rows, nil
}

// chosenParams returns the paper's underlined Table 2 selections.
func chosenParams(algorithm string, s Scale) map[string]any {
	switch algorithm {
	case "SVC":
		return map[string]any{"C": 10.0, "tol": 0.01, "penalty": "l1", "class_weight": ""}
	case "Logistic Regression":
		return map[string]any{"C": 1.0, "tol": 0.0001, "class_weight": ""}
	case "AdaBoost":
		return map[string]any{"n_estimators": 50, "algorithm": "SAMME", "DT_criterion": "gini", "DT_splitter": "best", "DT_min_samples_split": 5}
	case "Neural Net":
		return map[string]any{"activation_function1": "relu", "activation_function2": "relu", "activation_function3": "sigmoid"}
	case "XGBoost":
		// The paper's grid selects max_depth 64 / min_child_weight 1 on
		// its 63k-sample corpus; on our smaller corpus the grouped-CV
		// grid search lands on shallow, heavily regularized trees
		// (deep unregularized trees memorize per-run scales and fail to
		// transfer to unseen services).
		return map[string]any{"min_child_weight": 64.0, "max_depth": 4, "gamma": 0.0}
	default: // Random Forest
		return map[string]any{"n_estimators": s.Trees, "min_samples_leaf": s.MinSamplesLeaf, "min_samples_split": 5, "criterion": "entropy", "class_weight": ""}
	}
}

// Table4 returns the model's top-K feature importances (paper: top 30).
func Table4(ctx *Context, topK int) []core.FeatureImportance {
	imp := ctx.Model.FeatureImportances()
	if topK > 0 && len(imp) > topK {
		imp = imp[:topK]
	}
	return imp
}
