package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"monitorless/internal/features"
	"monitorless/internal/lifecycle"
	"monitorless/internal/pcp"
	"monitorless/internal/serving"
)

// The layer replay measures single layers from outside, after the server
// has drained: it loads the same bundle in-process, replays the
// workload's own requests, and times the public calls a request passes
// through — ServeHTTP; decode and Ingest; and, on the shard batches the
// server would form (split by Service.ShardOf), Cell.Observe,
// StepBatchInto, QuantizeBatch and PredictProbaCodes. Each of the three
// passes builds fresh state and runs a warm-up, then the measured ticks.

// series collects one cost per sample for each measured tick. The figure
// reported is the median tick, which a disturbance on a shared box moves
// little; a mean over all ticks would carry every stall.
type series map[string][]float64

func (s series) add(name string, ns int64, samples int) {
	s[name] = append(s[name], float64(ns)/float64(samples))
}

// addSpans adds one tick's spans, summed by name.
func (s series) addSpans(spans []span, samples int) {
	sum := make(map[string]int64)
	for _, sp := range spans {
		sum[sp.Name] += sp.End - sp.Start
	}
	for name, ns := range sum {
		s.add(name, ns, samples)
	}
}

func (s series) median(name string) float64 { return median(s[name]) }

// replayReq is one ingest request of the replay.
type replayReq struct {
	body    []byte
	wire    bool // binary quiet frame; otherwise JSON with echo
	samples int
}

// replayTicks lists the ingest requests of warm-up plus measured ticks,
// cycling through what the workload sent, and the length of that cycle.
func (run *onlineRun) replayTicks() (ticks [][]replayReq, warm, cycle int) {
	const measured = 16
	warm = max(run.bundle.Model.WindowSize(), 8)
	var sent [][]replayReq
	if run.sp.kind == kindClosed {
		for _, frames := range run.frames {
			var reqs []replayReq
			for _, f := range frames {
				reqs = append(reqs, replayReq{body: f, wire: true, samples: frameSamples(f)})
			}
			sent = append(sent, reqs)
		}
	} else {
		// Open loop: the schedule's full ticks, in order. Restarted agents
		// come back under new IDs exactly as they did on the wire; the
		// DELETEs are left out, so a replaced ID lingers, which costs
		// ingest nothing.
		var cur []replayReq
		for _, o := range run.sched.first {
			cur = append(cur, replayReq{body: o.body, samples: o.samples})
		}
		for _, o := range run.sched.ops {
			if o.kind != opIngest {
				continue
			}
			if len(cur) == run.sched.agents {
				sent, cur = append(sent, cur), nil
			}
			cur = append(cur, replayReq{body: o.body, samples: o.samples})
		}
		if len(cur) == run.sched.agents {
			sent = append(sent, cur)
		}
	}
	ticks = make([][]replayReq, warm+measured)
	for t := range ticks {
		ticks[t] = sent[t%len(sent)]
	}
	return ticks, warm, len(sent)
}

// alternate splits the measured ticks (m counts from the first one) into
// two interleaved halves that each see every tick of the cycle: the
// parity flips from one pass through the cycle to the next, so neither
// half is the cheaper half of the data.
func alternate(m, cycle int) bool { return (m+m/cycle)%2 == 0 }

// nullWriter is the ResponseWriter of the in-process ServeHTTP pass: it
// keeps the status and drops the body.
type nullWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) WriteHeader(code int)        { w.code = code }
func (w *nullWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }
func (w *nullWriter) reset()                      { clear(w.h); w.code = http.StatusOK; w.n = 0 }

func newIngestRequest(rq replayReq, t int) (*http.Request, error) {
	path, ct := "/ingest", "application/json"
	if rq.wire {
		setFrameT(rq.body, t)
		path, ct = "/ingest?quiet=1", serving.WireContentType
	}
	r, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(rq.body))
	if err != nil {
		return nil, err
	}
	r.Header.Set("Content-Type", ct)
	return r, nil
}

// decodeReq decodes a request body the way the handler does.
func decodeReq(rq replayReq, t int, sc *serving.WireScratch) (pcp.WireObservation, error) {
	if rq.wire {
		setFrameT(rq.body, t)
		return serving.DecodeWireScratch(rq.body, sc)
	}
	var obs pcp.WireObservation
	dec := json.NewDecoder(bytes.NewReader(rq.body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&obs)
	return obs, err
}

func ingestObs(svc *serving.Service, obs pcp.WireObservation, quiet bool) error {
	var resp *serving.IngestResponse
	var err error
	if quiet {
		resp, err = svc.IngestQuiet(obs)
	} else {
		resp, err = svc.Ingest(obs)
	}
	if err == nil {
		svc.PutResponse(resp)
	}
	return err
}

// releaseHeap returns a finished pass's state to the OS before the next
// pass builds its own, so peak memory stays one fleet, not five.
func releaseHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// layers runs the replay passes and fills in the per-layer metrics.
func (run *onlineRun) layers(e *env, res *result, scraped map[string]float64) error {
	ticks, warm, cycle := run.replayTicks()
	if len(ticks) <= warm {
		return fmt.Errorf("layer replay: %d ticks leave nothing to measure after %d warm-up ticks", len(ticks), warm)
	}
	m := run.bundle.Model
	quiet := run.sp.kind == kindClosed
	samples, wireBytes := 0, 0
	for _, reqs := range ticks[warm:] {
		for _, rq := range reqs {
			samples += rq.samples
			wireBytes += len(rq.body)
		}
	}

	// Pass 1, one service: measured ticks alternate between the whole
	// handler (ServeHTTP) and its two halves under a request span (decode,
	// then Ingest). Either way a tick advances the service by one tick, so
	// both are timed on the same memory and their difference is not
	// drowned by how two separately allocated fleets happen to be laid out.
	rec := newRecorder(true)
	ref, hp, err := run.passService(res, ticks, warm, cycle, quiet, rec)
	if err != nil {
		return err
	}
	httpNS := hp.perTick.median("servehttp")
	decodeNS, ingestNS := hp.perTick.median("serving.decode"), hp.perTick.median("serving.ingest")

	// Pass 2, the stages inside ingest on the shard batches the server
	// would form: measured ticks alternate between spans on and spans
	// off; the difference is what recording costs.
	sp, err := run.passStages(ref, ticks, warm, cycle, rec)
	if err != nil {
		return err
	}
	// The stage replay must be the server's pipeline: the same samples
	// through ingest and through the four stage calls agree bit for bit.
	for k, id := range sp.lastIDs {
		p, ok := ref.InstancePrediction(id)
		if !ok || math.Float64bits(p.Prob) != math.Float64bits(sp.lastProbs[k]) {
			res.problem("stage replay disagrees with Service.Ingest for %s: %v vs %v", id, sp.lastProbs[k], p.Prob)
			break
		}
	}
	ref = nil
	releaseHeap()
	driftNS, stepNS := sp.perTick.median("lifecycle.observe"), sp.perTick.median("features.step_batch")
	quantNS, walkNS := sp.perTick.median("forest.quantize"), sp.perTick.median("forest.walk")

	// Pass 3: two goroutines against one service.
	rate2, err := run.passScaling(ticks, warm, quiet)
	if err != nil {
		return err
	}
	releaseHeap()

	res.set("serving.servehttp_ns_per_sample", httpNS, hp.httpSamples)
	if quiet {
		res.set("serving.wire_decode_ns_per_sample", decodeNS, hp.spannedSamples)
	} else {
		res.set("serving.json_decode_ns_per_sample", decodeNS, hp.spannedSamples)
	}
	res.set("serving.ingest_ns_per_sample", ingestNS, hp.spannedSamples)
	res.set("serving.http_self_ns_per_sample", httpNS-decodeNS-ingestNS, hp.httpSamples)
	res.set("serving.ingest_self_ns_per_sample", ingestNS-driftNS-stepNS-quantNS-walkNS, hp.spannedSamples)
	res.set("serving.ingest_scaling_2x", rate2/(2*1e9/ingestNS), samples)
	res.set("serving.allocs_per_sample", float64(hp.allocs)/float64(hp.httpSamples), hp.httpSamples)
	res.set("serving.alloc_bytes_per_sample", float64(hp.allocBytes)/float64(hp.httpSamples), hp.httpSamples)
	res.set("serving.wire_bytes_per_sample", float64(wireBytes)/float64(samples), samples)
	res.set("lifecycle.drift_observe_ns_per_sample", driftNS, sp.onSamples)
	res.set("features.step_batch_ns_per_sample", stepNS, sp.onSamples)
	res.set("forest.quantize_ns_per_sample", quantNS, sp.onSamples)
	res.set("forest.walk_ns_per_sample", walkNS, sp.onSamples)
	res.set("trace.overhead_ns_per_sample", sp.perTick.median("wall-on")-sp.perTick.median("wall-off"), sp.onSamples)
	if cpu, ok := res.metrics["server_cpu_us_per_sample"]; ok {
		res.set("wire.unattributed_ns_per_sample", cpu.value*1000-httpNS, cpu.samples)
	}

	histMean := func(name string) (float64, int) {
		n := scraped[name+"_count"]
		if n == 0 {
			return 0, 0
		}
		return scraped[name+"_sum"] / n * 1e6, int(n)
	}
	v, n := histMean("monitorless_predict_seconds")
	res.set("serving.predict_seconds_mean_us", v, n)
	v, n = histMean("monitorless_predict_stage_seconds")
	res.set("serving.predict_stage_mean_us", v, n)
	res.set("serving.rejects_total", scraped["monitorless_ingest_rejects_total"], 1)
	res.set("lifecycle.drift_windows", scraped["monitorless_drift_windows_total"], 1)
	res.set("features.fallback_rows", scraped["monitorless_stream_fallback_rows_total"], 1)
	res.set("features.state_bytes_per_instance", scraped["monitorless_instance_state_bytes"]/float64(run.sp.instances), run.sp.instances)
	res.set("features.engineered_cols", float64(m.Pipeline.NumOutputs()), 1)
	res.set("forest.trees", float64(m.Forest.NumTrees()), 1)
	res.set("forest.quant_slots", float64(m.Forest.Quant().NumSlots()), 1)
	res.set("core.bundle_load_ms", run.loadSec*1e3, 1)
	res.set("core.bundle_bytes", float64(len(run.blob)), 1)

	if e.spansPath != "" {
		if err := writeSpans(e.spansPath, rec.spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return nil
}

// servicePass is what passService measured.
type servicePass struct {
	// perTick holds "servehttp" for the handler ticks and the span names
	// for the decode+ingest ticks.
	perTick        series
	httpSamples    int // samples of the handler ticks
	spannedSamples int // samples of the decode+ingest ticks
	allocs         uint64
	allocBytes     uint64
}

// passService replays every tick into one service. After warm-up, ticks
// alternate between Server.ServeHTTP and decode plus Ingest under a
// request span. It then times the read endpoints and
// Forget on the populated service, and returns the service (the stage
// pass checks itself against it and borrows its ShardOf).
func (run *onlineRun) passService(res *result, ticks [][]replayReq, warm, cycle int, quiet bool, rec *recorder) (*serving.Service, *servicePass, error) {
	svc, err := run.newReference()
	if err != nil {
		return nil, nil, err
	}
	srv := serving.NewServer(svc)
	w := &nullWriter{h: http.Header{}}
	hp := &servicePass{perTick: series{}}
	var sc serving.WireScratch
	var reqID int32
	var before, after runtime.MemStats
	for t, reqs := range ticks {
		handler := t < warm || alternate(t-warm, cycle)
		measured := t >= warm
		rec.on = measured && !handler
		if measured && handler {
			runtime.ReadMemStats(&before)
		}
		var tickNS int64
		tickSamples, firstSpan := 0, len(rec.spans)
		for _, rq := range reqs {
			tickSamples += rq.samples
			reqID++
			if handler {
				r, err := newIngestRequest(rq, t)
				if err != nil {
					return nil, nil, err
				}
				w.reset()
				start := time.Now()
				srv.ServeHTTP(w, r)
				tickNS += int64(time.Since(start))
				if w.code != http.StatusOK {
					return nil, nil, fmt.Errorf("layer replay: in-process ingest answered %d", w.code)
				}
				continue
			}
			root := rec.begin("request", -1, reqID)
			d := rec.begin("serving.decode", root, reqID)
			obs, err := decodeReq(rq, t, &sc)
			rec.end(d)
			if err != nil {
				return nil, nil, fmt.Errorf("layer replay: decode: %w", err)
			}
			g := rec.begin("serving.ingest", root, reqID)
			err = ingestObs(svc, obs, quiet)
			rec.end(g)
			rec.end(root)
			if err != nil {
				return nil, nil, fmt.Errorf("layer replay: ingest: %w", err)
			}
		}
		switch {
		case !measured:
		case handler:
			runtime.ReadMemStats(&after)
			hp.allocs += after.Mallocs - before.Mallocs
			hp.allocBytes += after.TotalAlloc - before.TotalAlloc
			hp.perTick.add("servehttp", tickNS, tickSamples)
			hp.httpSamples += tickSamples
		default:
			hp.perTick.addSpans(rec.spans[firstSpan:], tickSamples)
			hp.spannedSamples += tickSamples
		}
	}

	call := func(method, target string) error {
		r, err := http.NewRequest(method, target, nil)
		if err != nil {
			return err
		}
		w.reset()
		srv.ServeHTTP(w, r)
		if w.code != http.StatusOK {
			return fmt.Errorf("layer replay: %s %s answered %d", method, target, w.code)
		}
		return nil
	}
	timed := func(name string, n int, method string, target func(i int) string) error {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := call(method, target(i)); err != nil {
				return err
			}
		}
		res.set(name, float64(time.Since(start).Nanoseconds())/1e3/float64(n), n)
		return nil
	}
	// HarvestDrift first: the replay left every shard cell full, and a
	// /metrics read would drain them.
	start := time.Now()
	svc.HarvestDrift()
	res.set("lifecycle.drift_absorb_us", float64(time.Since(start).Nanoseconds())/1e3, 1)

	// The closed loop's check subset is live here; the open loop's final
	// fleet may not be (the replay cycles early ticks), so read what the
	// last replayed tick carried.
	ids := run.lastTickIDs(ticks[len(ticks)-1])
	id := func(i int) string { return url.QueryEscape(ids[i%len(ids)]) }
	for _, rd := range []struct {
		name, method string
		n            int
		target       func(int) string
	}{
		{"serving.read_apps_us", http.MethodGet, 20, func(int) string { return "/apps" }},
		{"serving.read_predict_us", http.MethodGet, 256, func(i int) string { return "/predict?instance=" + id(i) }},
		{"serving.read_metrics_us", http.MethodGet, 5, func(int) string { return "/metrics" }},
		{"serving.forget_us", http.MethodDelete, min(64, len(ids)), func(i int) string { return "/instances?id=" + id(i) }},
	} {
		if err := timed(rd.name, rd.n, rd.method, rd.target); err != nil {
			return nil, nil, err
		}
	}
	return svc, hp, nil
}

// lastTickIDs lists the instance IDs of a tick's first request.
func (run *onlineRun) lastTickIDs(reqs []replayReq) []string {
	obs, err := decodeReq(reqs[0], 0, nil)
	if err != nil {
		return nil
	}
	ids := make([]string, len(obs.Samples))
	for i := range obs.Samples {
		ids[i] = obs.Samples[i].Instance
	}
	return ids
}

// stageShard is the harness's stand-in for one serving shard: the slot
// registry and the per-shard scratch the four stage calls need.
type stageShard struct {
	slotOf map[string]int32
	slab   *features.StateSlab
	batch  features.BatchScratch
	cell   *lifecycle.Cell
	codes  []uint8
	probs  []float64
	slots  []int32
	raws   [][]float64
	ids    []string
}

// appOf extracts the application from an "<app>/<service>/<n>" ID, as
// the server does for samples that name no app.
func appOf(id string) string {
	app, _, _ := strings.Cut(id, "/")
	return app
}

// stagePass is what passStages measured.
type stagePass struct {
	// perTick holds the stage span names for the spans-on ticks, and the
	// stage section's wall time as "wall-on" and "wall-off".
	perTick   series
	onSamples int
	// lastIDs and lastProbs are the final request's instances and the
	// probabilities the stage calls gave them.
	lastIDs   []string
	lastProbs []float64
}

// passStages replays each request as the shard batches the server would
// form and calls the four stages on each batch. After warm-up, spans are
// recorded on alternate ticks: same state, same memory, so the
// per-sample difference in wall time is the cost of recording.
func (run *onlineRun) passStages(router *serving.Service, ticks [][]replayReq, warm, cycle int, rec *recorder) (*stagePass, error) {
	m := run.bundle.Model
	streamer, err := m.Streamer()
	if err != nil {
		return nil, err
	}
	q := m.Forest.Quant()
	fp := m.Fingerprint
	drift := !run.sp.driftOff && fp != nil
	shards := make([]stageShard, router.NumShards())
	for i := range shards {
		shards[i] = stageShard{slotOf: make(map[string]int32), slab: features.NewStateSlab(streamer), cell: lifecycle.NewCell()}
	}
	out := &stagePass{perTick: series{}}
	var sc serving.WireScratch
	var reqID int32
	for t, reqs := range ticks {
		measured := t >= warm
		rec.on = measured && alternate(t-warm, cycle)
		var tickNS int64
		tickSamples, firstSpan := 0, len(rec.spans)
		for _, rq := range reqs {
			tickSamples += rq.samples
			obs, err := decodeReq(rq, t, &sc)
			if err != nil {
				return nil, fmt.Errorf("layer replay: decode: %w", err)
			}
			reqID++
			out.lastIDs, out.lastProbs = out.lastIDs[:0], out.lastProbs[:0]
			start := time.Now()
			root := rec.begin("request", -1, reqID)
			for i := range shards {
				sh := &shards[i]
				sh.slots, sh.raws, sh.ids = sh.slots[:0], sh.raws[:0], sh.ids[:0]
			}
			for i := range obs.Samples {
				smp := &obs.Samples[i]
				sh := &shards[router.ShardOf(smp.Instance)]
				slot, ok := sh.slotOf[smp.Instance]
				if !ok {
					slot = int32(len(sh.slotOf))
					sh.slotOf[smp.Instance] = slot
					sh.slab.EnsureSlots(len(sh.slotOf))
				}
				sh.slots = append(sh.slots, slot)
				sh.raws = append(sh.raws, smp.Values)
				sh.ids = append(sh.ids, smp.Instance)
			}
			for i := range shards {
				sh := &shards[i]
				n := len(sh.slots)
				if n == 0 {
					continue
				}
				b := rec.begin("shard-batch", root, reqID)
				if drift {
					s := rec.begin("lifecycle.observe", b, reqID)
					for k, raw := range sh.raws {
						sh.cell.Observe(fp, appOf(sh.ids[k]), raw)
					}
					rec.end(s)
				}
				s := rec.begin("features.step_batch", b, reqID)
				err := streamer.StepBatchInto(sh.slab, sh.slots, sh.raws, &sh.batch)
				rec.end(s)
				if err != nil {
					return nil, fmt.Errorf("layer replay: step: %w", err)
				}
				s = rec.begin("forest.quantize", b, reqID)
				sh.codes, err = q.QuantizeBatch(sh.batch.Cols(), n, sh.codes)
				rec.end(s)
				if err != nil {
					return nil, fmt.Errorf("layer replay: quantize: %w", err)
				}
				if cap(sh.probs) < n {
					sh.probs = make([]float64, n)
				}
				sh.probs = sh.probs[:n]
				s = rec.begin("forest.walk", b, reqID)
				err = q.PredictProbaCodes(sh.codes, sh.probs)
				rec.end(s)
				if err != nil {
					return nil, fmt.Errorf("layer replay: walk: %w", err)
				}
				rec.end(b)
				out.lastIDs = append(out.lastIDs, sh.ids...)
				out.lastProbs = append(out.lastProbs, sh.probs...)
			}
			rec.end(root)
			tickNS += int64(time.Since(start))
		}
		switch {
		case !measured:
		case rec.on:
			out.perTick.add("wall-on", tickNS, tickSamples)
			out.perTick.addSpans(rec.spans[firstSpan:], tickSamples)
			out.onSamples += tickSamples
		default:
			out.perTick.add("wall-off", tickNS, tickSamples)
		}
	}
	return out, nil
}

// passScaling drives one fresh service from two goroutines, each with
// its own half of every tick's requests as the two connections have, and
// returns the sum of the goroutines' ingest rates in samples/s.
func (run *onlineRun) passScaling(ticks [][]replayReq, warm int, quiet bool) (float64, error) {
	svc, err := run.newReference()
	if err != nil {
		return 0, err
	}
	const workers = 2
	rates := make([]float64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sc serving.WireScratch
			var ns int64
			n := 0
			for t, reqs := range ticks {
				for i := w; i < len(reqs); i += workers {
					// Each goroutine owns its requests' buffers, so the T
					// rewrite inside decodeReq is not shared.
					obs, err := decodeReq(reqs[i], t, &sc)
					if err != nil {
						errs[w] = err
						return
					}
					start := time.Now()
					err = ingestObs(svc, obs, quiet)
					if t >= warm {
						ns += int64(time.Since(start))
						n += reqs[i].samples
					}
					if err != nil {
						errs[w] = err
						return
					}
				}
			}
			if ns > 0 {
				rates[w] = float64(n) / (float64(ns) / 1e9)
			}
		}(w)
	}
	wg.Wait()
	var sum float64
	for w := range rates {
		if errs[w] != nil {
			return 0, fmt.Errorf("layer replay: scaling pass: %w", errs[w])
		}
		sum += rates[w]
	}
	return sum, nil
}
