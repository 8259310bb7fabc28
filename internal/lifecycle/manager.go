package lifecycle

import (
	"context"
	"fmt"
	"sync"
	"time"

	"monitorless/internal/core"
	"monitorless/internal/frame"
	"monitorless/internal/ml/forest"
	"monitorless/internal/ml/score"
)

// Policy selects what the lifecycle manager does with a winning
// challenger.
type Policy string

const (
	// PolicyOff disables shadow retraining entirely.
	PolicyOff Policy = "off"
	// PolicyShadow trains and scores challengers but never swaps; the
	// champion/challenger record is observability only.
	PolicyShadow Policy = "shadow"
	// PolicyAuto promotes a winning challenger through the swap callback.
	PolicyAuto Policy = "auto"
)

// ParsePolicy validates a -swap-policy flag value.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case PolicyOff, PolicyShadow, PolicyAuto:
		return Policy(s), nil
	}
	return "", fmt.Errorf("lifecycle: unknown swap policy %q (want off, shadow or auto)", s)
}

// Config parameterizes a Manager.
type Config struct {
	// Champion is the currently serving model. The manager trains
	// challengers with the champion forest's own hyper-parameters on the
	// engineered-feature reservoir; the champion's pipeline is shared
	// unchanged, which is what makes a promotion a warm (state-preserving)
	// swap in the serving plane.
	Champion *core.Model
	// Policy is off, shadow or auto (default off).
	Policy Policy
	// ReservoirCap bounds the labeled-sample ring (0 = DefaultReservoirCap).
	ReservoirCap int
	// HoldoutEvery holds out every k-th reservoir slot for champion/
	// challenger comparison (≤1 selects 5, i.e. 20%).
	HoldoutEvery int
	// MinFitSamples skips retraining until the reservoir holds at least
	// this many training rows (0 selects 512).
	MinFitSamples int
	// WinMargin is how much the challenger's holdout F1 must exceed the
	// champion's before it counts as a win (0 = any strict improvement).
	WinMargin float64
	// Seed makes the retrain sequence deterministic; round r uses
	// Seed + r·9973.
	Seed int64
	// Swap promotes a winning challenger (PolicyAuto only). It is the
	// serving plane's atomic hot-swap entry; a non-nil error keeps the
	// old champion.
	Swap func(m *core.Model, trainSamples int, reason string) error
	// Harvest, when non-nil, is called before each retrain round to drain
	// per-shard drift cells into the monitor (so drift context in reports
	// is current).
	Harvest func()
	// OnOutcome, when non-nil, observes each round's outcome: "win",
	// "loss", "skip" or "error" (the serving metrics counters).
	OnOutcome func(outcome string)
}

// ChallengerReport records one shadow-retrain round.
type ChallengerReport struct {
	Round       uint64    `json:"round"`
	At          time.Time `json:"at"`
	TrainRows   int       `json:"train_rows"`
	HoldoutRows int       `json:"holdout_rows"`
	// ChampionF1 / ChallengerF1 are holdout F1 scores at the champion's
	// decision threshold.
	ChampionF1   float64 `json:"champion_f1"`
	ChallengerF1 float64 `json:"challenger_f1"`
	// FitSeconds is the challenger's wall-clock training time (the
	// retrain latency; BenchmarkRetrainChallenger times the whole round).
	FitSeconds float64 `json:"fit_seconds"`
	Win        bool    `json:"win"`
	Swapped    bool    `json:"swapped"`
	// Skipped carries the skip reason when the round trained nothing.
	Skipped string `json:"skipped,omitempty"`
	Err     string `json:"err,omitempty"`
}

// Outcome classifies the round for the metrics counters.
func (r ChallengerReport) Outcome() string {
	switch {
	case r.Err != "":
		return "error"
	case r.Skipped != "":
		return "skip"
	case r.Win:
		return "win"
	default:
		return "loss"
	}
}

// maxReports bounds the retained round history.
const maxReports = 32

// Manager owns the shadow-retrain loop: reservoir in, challenger
// reports out, champion promotion through the swap callback.
type Manager struct {
	cfg Config

	// Reservoir collects labeled engineered rows; the serving plane's
	// label sink points here.
	Reservoir *Reservoir

	mu       sync.Mutex
	champion *core.Model
	rounds   uint64
	wins     uint64
	losses   uint64
	skips    uint64
	reports  []ChallengerReport
}

// NewManager builds a manager around the serving champion. The champion
// must be a fitted model (its pipeline defines the reservoir schema).
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Champion == nil || cfg.Champion.Forest == nil || cfg.Champion.Pipeline == nil {
		return nil, fmt.Errorf("lifecycle: manager needs a fitted champion model")
	}
	if cfg.Policy == "" {
		cfg.Policy = PolicyOff
	}
	if cfg.MinFitSamples <= 0 {
		cfg.MinFitSamples = 512
	}
	return &Manager{
		cfg:       cfg,
		Reservoir: NewReservoir(cfg.Champion.EngineeredSchema(), cfg.ReservoirCap),
		champion:  cfg.Champion,
	}, nil
}

// Policy returns the configured promotion policy.
func (mg *Manager) Policy() Policy { return mg.cfg.Policy }

// Champion returns the current champion model.
func (mg *Manager) Champion() *core.Model {
	mg.mu.Lock()
	defer mg.mu.Unlock()
	return mg.champion
}

// Status is the /model endpoint's lifecycle snapshot.
type Status struct {
	Policy         Policy             `json:"policy"`
	Rounds         uint64             `json:"rounds"`
	Wins           uint64             `json:"wins"`
	Losses         uint64             `json:"losses"`
	Skips          uint64             `json:"skips"`
	ReservoirRows  int                `json:"reservoir_rows"`
	ReservoirCap   int                `json:"reservoir_cap"`
	ReservoirTotal uint64             `json:"reservoir_total"`
	Reports        []ChallengerReport `json:"reports,omitempty"`
}

// Status snapshots the manager for observability endpoints.
func (mg *Manager) Status() Status {
	mg.mu.Lock()
	defer mg.mu.Unlock()
	return Status{
		Policy:         mg.cfg.Policy,
		Rounds:         mg.rounds,
		Wins:           mg.wins,
		Losses:         mg.losses,
		Skips:          mg.skips,
		ReservoirRows:  mg.Reservoir.Len(),
		ReservoirCap:   mg.Reservoir.Cap(),
		ReservoirTotal: mg.Reservoir.Total(),
		Reports:        append([]ChallengerReport(nil), mg.reports...),
	}
}

// Counts returns the win/loss/skip tallies.
func (mg *Manager) Counts() (wins, losses, skips uint64) {
	mg.mu.Lock()
	defer mg.mu.Unlock()
	return mg.wins, mg.losses, mg.skips
}

// RetrainOnce runs one shadow-retrain round: snapshot the reservoir, fit
// a challenger forest on the histogram path with the champion's
// hyper-parameters, compare holdout F1 at the champion threshold, and —
// under PolicyAuto — promote a winner through the swap callback. The
// returned report is also appended to the bounded history.
func (mg *Manager) RetrainOnce() ChallengerReport {
	if mg.cfg.Harvest != nil {
		mg.cfg.Harvest()
	}
	mg.mu.Lock()
	mg.rounds++
	round := mg.rounds
	champ := mg.champion
	mg.mu.Unlock()

	rep := ChallengerReport{Round: round, At: time.Now().UTC()}
	fit, trainRows, holdRows := mg.Reservoir.Snapshot(mg.cfg.HoldoutEvery)
	if fit != nil {
		rep.TrainRows, rep.HoldoutRows = len(trainRows), len(holdRows)
	}
	switch {
	case fit == nil:
		rep.Skipped = "reservoir empty"
	case len(trainRows) < mg.cfg.MinFitSamples:
		rep.Skipped = fmt.Sprintf("reservoir has %d training rows, need %d", len(trainRows), mg.cfg.MinFitSamples)
	case len(holdRows) == 0:
		rep.Skipped = "empty holdout slice"
	case !hasBothClasses(fit.Labels(), trainRows):
		rep.Skipped = "training rows are single-class"
	}
	if rep.Skipped != "" {
		return mg.finish(rep)
	}

	truth := make([]int, len(holdRows))
	for p, i := range holdRows {
		truth[p] = fit.Labels()[i]
	}
	champF1, err := holdoutF1(champ.Forest, champ.Threshold, fit, holdRows, truth)
	if err != nil {
		rep.Err = err.Error()
		return mg.finish(rep)
	}
	rep.ChampionF1 = champF1

	start := time.Now()
	challenger, err := forest.Retrain(champ.Forest, fit, nil, trainRows, mg.cfg.Seed+int64(round)*9973)
	rep.FitSeconds = time.Since(start).Seconds()
	if err != nil {
		rep.Err = err.Error()
		return mg.finish(rep)
	}
	chalF1, err := holdoutF1(challenger, champ.Threshold, fit, holdRows, truth)
	if err != nil {
		rep.Err = err.Error()
		return mg.finish(rep)
	}
	rep.ChallengerF1 = chalF1
	rep.Win = chalF1 > champF1+mg.cfg.WinMargin

	if rep.Win && mg.cfg.Policy == PolicyAuto && mg.cfg.Swap != nil {
		// The promoted model shares the champion's pipeline pointer — the
		// serving plane recognizes that as a warm swap and preserves
		// per-instance stream state. The raw-frame fingerprint stays the
		// champion's: the reservoir holds engineered rows, so the raw
		// training distribution reference is unchanged.
		promoted := &core.Model{
			Pipeline:           champ.Pipeline,
			Forest:             challenger,
			Threshold:          champ.Threshold,
			RawSchema:          champ.RawSchema,
			Fingerprint:        champ.Fingerprint,
			TrainSamples:       len(trainRows),
			TrainSaturatedFrac: saturatedFrac(fit.Labels(), trainRows),
		}
		if err := mg.cfg.Swap(promoted, len(trainRows), fmt.Sprintf("challenger round %d: F1 %.4f > %.4f", round, chalF1, champF1)); err != nil {
			rep.Err = fmt.Sprintf("swap refused: %v", err)
		} else {
			rep.Swapped = true
			mg.mu.Lock()
			mg.champion = promoted
			mg.mu.Unlock()
		}
	}
	return mg.finish(rep)
}

// finish records the report, updates tallies and fires OnOutcome.
func (mg *Manager) finish(rep ChallengerReport) ChallengerReport {
	mg.mu.Lock()
	switch rep.Outcome() {
	case "win":
		mg.wins++
	case "loss":
		mg.losses++
	case "skip", "error":
		mg.skips++
	}
	mg.reports = append(mg.reports, rep)
	if len(mg.reports) > maxReports {
		mg.reports = mg.reports[len(mg.reports)-maxReports:]
	}
	mg.mu.Unlock()
	if mg.cfg.OnOutcome != nil {
		mg.cfg.OnOutcome(rep.Outcome())
	}
	return rep
}

// Run drives RetrainOnce on a fixed interval until ctx is cancelled.
// PolicyOff returns immediately.
func (mg *Manager) Run(ctx context.Context, interval time.Duration) {
	if mg.cfg.Policy == PolicyOff || interval <= 0 {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			mg.RetrainOnce()
		}
	}
}

// holdoutF1 scores a forest on the holdout rows at the given threshold.
func holdoutF1(f *forest.Forest, threshold float64, fit *frame.Frame, holdRows []int, truth []int) (float64, error) {
	probs := f.PredictProbaFrameRows(fit, holdRows)
	preds := make([]int, len(probs))
	for i, p := range probs {
		if p >= threshold {
			preds[i] = 1
		}
	}
	c, err := score.Count(preds, truth)
	if err != nil {
		return 0, err
	}
	return c.F1(), nil
}

// hasBothClasses reports whether the listed rows contain both labels.
func hasBothClasses(labels []int, rows []int) bool {
	var seen0, seen1 bool
	for _, i := range rows {
		if labels[i] == 1 {
			seen1 = true
		} else {
			seen0 = true
		}
		if seen0 && seen1 {
			return true
		}
	}
	return false
}

// saturatedFrac is the positive-label fraction of the listed rows.
func saturatedFrac(labels []int, rows []int) float64 {
	if len(rows) == 0 {
		return 0
	}
	n1 := 0
	for _, i := range rows {
		n1 += labels[i]
	}
	return float64(n1) / float64(len(rows))
}
