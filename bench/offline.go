package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"time"

	"monitorless/internal/core"
	"monitorless/internal/dataset"
	"monitorless/internal/features"
	"monitorless/internal/frame"
	"monitorless/internal/ml/forest"
	"monitorless/internal/ml/score"
)

// holdoutSeedOffset separates the held-out corpus's seed from the
// training corpus's.
const holdoutSeedOffset = 7919

// offlineDuration is the simulated seconds per Table 1 run: the paper's
// 900 at 15 measured seconds, shrunk in proportion below that.
func offlineDuration(sp spec, seconds int) int {
	return min(900, max(60, sp.secondsPerRun*seconds))
}

func generate(sp spec, duration int, seed int64) (*frame.Frame, error) {
	fr, _, err := dataset.GenerateFrame(table1Runs(sp.offlineRuns), dataset.GenOptions{
		Duration:    duration,
		RampSeconds: sp.offlineRamp,
		Seed:        seed,
	})
	return fr, err
}

// holdoutF1 scores per-run predictions against the frame's labels.
func holdoutF1(fr *frame.Frame, preds map[int][]int) (float64, error) {
	var all, truth []int
	for _, sp := range fr.Spans() {
		all = append(all, preds[sp.ID]...)
		truth = append(truth, fr.Labels()[sp.Start:sp.End]...)
	}
	c, err := score.Count(all, truth)
	if err != nil {
		return 0, err
	}
	return c.F1(), nil
}

// offlineJob is one execution of the batch job and what it produced,
// kept for the checks and the traced stage pass.
type offlineJob struct {
	sp      spec
	seed    int64
	cfg     core.TrainConfig
	corpus  *frame.Frame
	holdout *frame.Frame
	model   *core.Model
	blob    []byte // the saved bundle
	preds   map[int][]int
	probs   map[int][]float64
	genSec  float64 // dataset.GenerateFrame
	total   float64 // generate → loaded bundle → scored holdout
}

// runOffline executes the batch job: generate the training corpus, fit
// (core.TrainFrame), save, load, score the held-out corpus, F1. Set-up is
// generating the held-out corpus from another seed. The program under
// test is this process, so its own CPU and peak RSS are what the
// server_* metrics read here, a sample is a corpus row, and the job is
// the workload's one request.
func runOffline(e *env, sp spec, seed int64, seconds int, traced bool) (*result, error) {
	res := &result{workload: sp.name, seed: seed, seconds: seconds, traced: traced, correct: true, metrics: map[string]metric{}}
	duration := offlineDuration(sp, seconds)
	job := &offlineJob{sp: sp, seed: seed, cfg: paperTrainConfig(sp.offlineTrees, seed)}

	var setups []float64
	for k := 0; k < sp.setups; k++ {
		start := time.Now()
		h, err := generate(sp, duration, seed+holdoutSeedOffset)
		if err != nil {
			return nil, fmt.Errorf("held-out corpus: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		job.holdout = h
	}
	res.set("setup_s", median(setups), len(setups))

	user0, sys0, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	f1, err := job.run(duration)
	if err != nil {
		return nil, err
	}
	user1, sys1, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	rss, err := procPeakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}

	rows := job.corpus.Rows() + job.holdout.Rows()
	cpu := (user1 + sys1) - (user0 + sys0)
	res.attempted = 1
	res.set("ingest_samples_per_s", float64(rows)/job.total, rows)
	res.set("server_cpu_us_per_sample", cpu*1e6/float64(rows), rows)
	res.set("server_peak_rss_mb", rss, 1)
	res.set("ingest_req_p50_ms", job.total*1e3, 1)
	res.set("ingest_req_p90_ms", job.total*1e3, 1)
	res.set("train_total_s", job.total, 1)
	res.set("offline_peak_rss_mb", rss, 1)
	res.set("holdout_f1", f1, job.holdout.Rows())
	res.set("dataset.generate_s", job.genSec, 1)
	res.set("dataset.rows", float64(job.corpus.Rows()), 1)
	res.set("core.bundle_bytes", float64(len(job.blob)), 1)
	res.set("server.cpu_sys_share", (sys1-sys0)/cpu, 1)
	if !(f1 > 0) {
		res.problem("held-out F1 is %v", f1)
	}
	// The model that went through the bundle must predict as the fitted
	// one does.
	direct, directProbs, err := job.model.PredictFrame(job.holdout)
	if err != nil {
		return nil, err
	}
	if !samePredictions(job.preds, job.probs, direct, directProbs) {
		res.problem("the reloaded bundle predicts differently from the model it was saved from")
	}
	if traced {
		if err := job.stages(e, res); err != nil {
			return nil, err
		}
	}
	res.set("failed_share", float64(res.failed)/float64(res.attempted), res.attempted)
	return res, nil
}

// run is the measured job.
func (job *offlineJob) run(duration int) (f1 float64, err error) {
	start := time.Now()
	if job.corpus, err = generate(job.sp, duration, job.seed); err != nil {
		return 0, fmt.Errorf("training corpus: %w", err)
	}
	job.genSec = time.Since(start).Seconds()
	if job.model, err = core.TrainFrame(job.corpus, job.cfg); err != nil {
		return 0, err
	}
	var blob bytes.Buffer
	if err := core.SaveBundle(&blob, job.model, job.seed); err != nil {
		return 0, err
	}
	job.blob = blob.Bytes()
	loaded, err := core.LoadBundle(bytes.NewReader(job.blob))
	if err != nil {
		return 0, err
	}
	if job.preds, job.probs, err = loaded.Model.PredictFrame(job.holdout); err != nil {
		return 0, err
	}
	if f1, err = holdoutF1(job.holdout, job.preds); err != nil {
		return 0, err
	}
	job.total = time.Since(start).Seconds()
	return f1, nil
}

func samePredictions(a map[int][]int, ap map[int][]float64, b map[int][]int, bp map[int][]float64) bool {
	if len(a) != len(b) || len(ap) != len(bp) {
		return false
	}
	for id, xs := range ap {
		ys, ok := bp[id]
		if !ok || len(xs) != len(ys) || len(a[id]) != len(b[id]) {
			return false
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(ys[i]) || a[id][i] != b[id][i] {
				return false
			}
		}
	}
	return true
}

// stages is the traced half of the batch job: it assembles the model
// stage by stage through each layer's public API, one span per call, and
// requires the resulting bundle to be byte-identical to TrainFrame's. The
// stage times plus the signed remainder add up to train_total_s.
func (job *offlineJob) stages(e *env, res *result) error {
	cfg, corpus, holdout := job.cfg, job.corpus, job.holdout
	rec := newRecorder(true)
	root := rec.begin("offline-job", -1, 1)
	timed := func(name string, fn func() error) (float64, error) {
		s := rec.begin(name, root, 1)
		err := fn()
		rec.end(s)
		return float64(rec.spans[s].End-rec.spans[s].Start) / 1e9, err
	}

	var pipe *features.Pipeline
	var engineered *frame.Frame
	pipeSec, err := timed("features.pipeline_fit", func() (err error) {
		if pipe, err = features.NewPipeline(cfg.Pipeline); err != nil {
			return err
		}
		engineered, err = pipe.FitFrame(corpus)
		return err
	})
	if err != nil {
		return err
	}
	fcfg := cfg.Forest
	fcfg.Threshold = cfg.Threshold
	fr := forest.New(fcfg)
	forestSec, err := timed("forest.fit", func() error { return fr.FitFrame(engineered, nil, nil) })
	if engineered != corpus && engineered.Chunked() {
		_ = engineered.Discard() // in-memory chunks: nothing to fail
	}
	if err != nil {
		return err
	}
	var fp *frame.Fingerprint
	fpSec, _ := timed("frame.fingerprint", func() error { fp = frame.FingerprintFrame(corpus, 0); return nil })
	saturated := 0
	for _, l := range corpus.Labels() {
		saturated += l
	}
	staged := &core.Model{
		Pipeline: pipe, Forest: fr, Threshold: cfg.Threshold,
		RawSchema: corpus.Schema(), Fingerprint: fp,
		TrainSamples: corpus.Rows(), TrainSaturatedFrac: float64(saturated) / float64(corpus.Rows()),
	}
	var blob bytes.Buffer
	saveSec, err := timed("core.bundle_save", func() error { return core.SaveBundle(&blob, staged, job.seed) })
	if err != nil {
		return err
	}
	if !bytes.Equal(blob.Bytes(), job.blob) {
		res.problem("the bundle assembled stage by stage (%d bytes) differs from core.TrainFrame's (%d bytes)", blob.Len(), len(job.blob))
	}
	var loaded *core.Bundle
	loadSec, err := timed("core.bundle_load", func() (err error) {
		loaded, err = core.LoadBundle(bytes.NewReader(blob.Bytes()))
		return err
	})
	if err != nil {
		return err
	}
	var preds map[int][]int
	var probs map[int][]float64
	predictSec, err := timed("core.predict_frame", func() (err error) {
		preds, probs, err = loaded.Model.PredictFrame(holdout)
		return err
	})
	if err != nil {
		return err
	}
	if !samePredictions(preds, probs, job.preds, job.probs) {
		res.problem("the staged bundle predicts differently from core.TrainFrame's")
	}
	rec.end(root)

	rows := corpus.Rows()
	res.set("features.pipeline_fit_s", pipeSec, rows)
	res.set("forest.fit_s", forestSec, rows)
	res.set("frame.fingerprint_s", fpSec, rows)
	res.set("core.bundle_save_ms", saveSec*1e3, 1)
	res.set("core.bundle_load_ms", loadSec*1e3, 1)
	res.set("core.predict_frame_ns_per_row", predictSec*1e9/float64(holdout.Rows()), holdout.Rows())
	res.set("features.engineered_cols", float64(pipe.NumOutputs()), 1)
	res.set("forest.trees", float64(fr.NumTrees()), 1)
	if q := fr.Quant(); q != nil {
		res.set("forest.quant_slots", float64(q.NumSlots()), 1)
	}
	// train_total_s came from the untraced job (one TrainFrame call); the
	// stages came from this pass. The signed difference is what the
	// ledger cannot name: scoring, allocation and GC between stages, and
	// run-to-run variation between the two fits.
	stages := job.genSec + pipeSec + forestSec + fpSec + saveSec + loadSec + predictSec
	res.set("offline.unattributed_s", job.total-stages, 1)
	// Spans off is the TrainFrame call inside the job; spans on is the
	// three fit stages here.
	fitOff := job.total - job.genSec - saveSec - loadSec - predictSec
	res.set("trace.overhead_ns_per_sample", (pipeSec+forestSec+fpSec-fitOff)*1e9/float64(rows), rows)
	if e.spansPath != "" {
		if err := writeSpans(e.spansPath, rec.spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return nil
}
