package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"monitorless/internal/core"
)

// env is what every run shares: where scratch files go and the serve
// binary built once for the whole invocation.
type env struct {
	workDir  string
	serveBin string
	// spansPath is where a traced run writes its spans ("" = nowhere).
	spansPath string
}

// metric is one reported value with the number of observations behind
// it (requests for a latency, samples for a per-sample cost).
type metric struct {
	value   float64
	unit    string
	samples int
}

// result is one run of one workload.
type result struct {
	workload  string
	seed      int64
	seconds   int
	traced    bool
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	// problems lists every failed correctness check, for the report.
	problems []string
}

func (r *result) set(name string, v float64, samples int) {
	r.metrics[name] = metric{value: v, unit: unitOf(name), samples: samples}
}

func (r *result) problem(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("bench: metric " + name + " is not declared in spec.go")
}

// warmUp is the unmeasured lead-in before the window: long enough for
// the time-window rings to fill and pools and maps to reach steady state.
func warmUp(seconds int) time.Duration {
	if seconds >= 8 {
		return 2 * time.Second
	}
	return time.Duration(seconds) * time.Second / 4
}

// onlineRun carries one online workload from bundle to drained server.
type onlineRun struct {
	sp      spec
	seed    int64
	bundle  *core.Bundle
	blob    []byte
	tr      *traffic
	frames  [][][]byte // closed loop
	sched   *schedule  // open loop
	srv     *server
	conns   []*conn
	loadSec float64 // core.LoadBundle time

	reqs []done
	sent []int // closed loop: ticks accepted per block
	// The measured window is cut into slices; edges are offsets from the
	// run origin and cpu is what both processes had used at each edge.
	edges [slices + 1]time.Duration
	cpu   [slices + 1]cpuSample
}

// slices is how many equal parts the measured window is reported in.
const slices = 5

// cpuSample is the CPU both processes had used at a window edge.
type cpuSample struct {
	srvUser, srvSys, selfUser, selfSys float64
}

func sampleCPU(pid int) (cpuSample, error) {
	var c cpuSample
	var err error
	if c.srvUser, c.srvSys, err = procCPU(pid); err != nil {
		return c, err
	}
	c.selfUser, c.selfSys, err = procCPU(os.Getpid())
	return c, err
}

// runOnline executes an online workload: train the fixture bundle, build
// the seeded inputs, set up (several times), drive the measured window,
// check what the server served, drain it, and report.
func runOnline(e *env, sp spec, seed int64, seconds int, traced bool) (*result, error) {
	res := &result{workload: sp.name, seed: seed, seconds: seconds, traced: traced, correct: true, metrics: map[string]metric{}}
	run := &onlineRun{sp: sp, seed: seed}

	blob, err := trainBundle(sp)
	if err != nil {
		return nil, err
	}
	run.blob = blob
	dir, err := os.MkdirTemp(e.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	modelPath := filepath.Join(dir, "model.gob")
	if err := os.WriteFile(modelPath, blob, 0o644); err != nil {
		return nil, err
	}
	loadStart := time.Now()
	if run.bundle, err = core.LoadBundle(bytes.NewReader(blob)); err != nil {
		return nil, err
	}
	run.loadSec = time.Since(loadStart).Seconds()

	if run.tr, err = newTraffic(seed, sp.ticks); err != nil {
		return nil, err
	}
	warm := warmUp(seconds)
	window := time.Duration(seconds) * time.Second
	switch sp.kind {
	case kindClosed:
		run.frames, err = fleetFrames(run.tr, sp, run.bundle.SchemaHash)
	case kindOpen:
		run.sched, err = buildSchedule(sp, seed, run.tr, run.bundle.SchemaHash, warm+window)
	}
	if err != nil {
		return nil, err
	}

	// Whatever happens from here, no server is left running.
	defer func() {
		if run.srv != nil {
			run.srv.kill()
		}
	}()
	// Set-up, repeated: exec serve → banner → first full fleet tick
	// accepted. The last server stays up for the measurement.
	var setups []float64
	for k := 0; k < sp.setups; k++ {
		if k > 0 {
			if err := run.tearDown(); err != nil {
				return nil, fmt.Errorf("set-up %d: %w", k-1, err)
			}
		}
		start := time.Now()
		if err := run.setUp(e.serveBin, modelPath); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res.set("setup_s", median(setups), len(setups))

	if err := run.drive(warm, window); err != nil {
		return nil, err
	}
	if err := run.srv.alive(); err != nil {
		return nil, err
	}
	run.report(res)
	if sp.strict {
		if err := run.selfAccounting(res); err != nil {
			return nil, err
		}
	}

	scraped, err := scrapeMetrics(run.srv.base)
	if err != nil {
		return nil, err
	}
	if n := scraped["monitorless_stream_fallback_rows_total"]; n != 0 {
		res.problem("server engineered %v rows through the allocating fallback path, want 0", n)
	}
	if n := scraped["monitorless_ingest_rejects_total"]; n != 0 {
		res.problem("server rejected %v observations, want 0", n)
	}
	run.checkServed(res)
	rss, err := procPeakRSSMB(run.srv.pid())
	if err != nil {
		return nil, err
	}
	res.set("server_peak_rss_mb", rss, 1)

	res.attempted++
	if err := run.tearDown(); err != nil {
		res.failed++
		res.problem("%v", err)
	}
	if traced {
		if err := run.layers(e, res, scraped); err != nil {
			return nil, err
		}
	}
	res.set("failed_share", float64(res.failed)/float64(res.attempted), res.attempted)
	return res, nil
}

// setUp starts a server and registers the whole fleet with its first
// tick. On failure nothing is left running.
func (run *onlineRun) setUp(serveBin, modelPath string) error {
	srv, err := startServer(serveBin, modelPath, run.sp.driftOff)
	if err != nil {
		return err
	}
	run.srv = srv
	run.conns = make([]*conn, run.sp.conns)
	for i := range run.conns {
		run.conns[i] = newConn(srv.base)
	}
	var first []op
	if run.sp.kind == kindClosed {
		first = firstTickOps(run.frames)
	} else {
		first = run.sched.first
	}
	if err = sendOps(run.conns, first); err != nil {
		for _, c := range run.conns {
			c.close()
		}
		srv.kill()
	}
	return err
}

// tearDown closes the connections and requires a clean SIGTERM drain.
func (run *onlineRun) tearDown() error {
	for _, c := range run.conns {
		c.close()
	}
	return run.srv.drain()
}

// drive runs warm-up plus the measured window and samples both
// processes' CPU at every slice edge.
func (run *onlineRun) drive(warm, window time.Duration) error {
	origin := time.Now()
	var stop atomic.Bool
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		if run.sp.kind == kindClosed {
			cr := closedLoop(run.conns, run.frames, origin, &stop)
			run.reqs, run.sent = cr.reqs, cr.sent
		} else {
			run.reqs = openLoop(run.conns, run.sched.ops, origin)
		}
	}()
	var err error
	for k := 0; k <= slices && err == nil; k++ {
		time.Sleep(warm + window*time.Duration(k)/slices - time.Since(origin))
		run.edges[k] = time.Since(origin)
		run.cpu[k], err = sampleCPU(run.srv.pid())
	}
	stop.Store(true)
	<-finished
	return err
}

// sliceStats is what one slice of the window measured.
type sliceStats struct {
	ingestLat, readLat []float64 // ms, successful requests only
	acked              int
}

// report turns the request log into the end-to-end metrics. Every figure
// is the median over the window's slices: a neighbour's burst on a
// shared box lands in a slice or two and moves a median little, where it
// would move a whole-window mean.
func (run *onlineRun) report(res *result) {
	var st [slices]sliceStats
	var allLat, late []float64
	winStart, winEnd := run.edges[0], run.edges[slices]
	for _, d := range run.reqs {
		// A closed-loop request belongs to the slice it completed in; an
		// open-loop request to the slice it was due in.
		at := d.end
		if run.sp.kind == kindOpen {
			at = d.due
		}
		if at < winStart || at >= winEnd {
			continue
		}
		res.attempted++
		if !d.ok {
			res.failed++
			continue
		}
		k := 0
		for k < slices-1 && at >= run.edges[k+1] {
			k++
		}
		lat := ms64(d.end - d.due)
		allLat = append(allLat, lat)
		if d.idle {
			late = append(late, ms64(d.start-d.due))
		}
		switch {
		case d.kind == opIngest:
			st[k].acked += d.samples
			st[k].ingestLat = append(st[k].ingestLat, lat)
		case d.kind.isRead():
			st[k].readLat = append(st[k].readLat, lat)
		}
	}

	var rate, cpuPer, sysShare, selfShare, p50s, p90s, read90s []float64
	acked, nIngest, nRead := 0, 0, 0
	for k := range st {
		sl := &st[k]
		sort.Float64s(sl.ingestLat)
		sort.Float64s(sl.readLat)
		wall := (run.edges[k+1] - run.edges[k]).Seconds()
		c0, c1 := run.cpu[k], run.cpu[k+1]
		srvCPU := (c1.srvUser + c1.srvSys) - (c0.srvUser + c0.srvSys)
		acked += sl.acked
		nIngest += len(sl.ingestLat)
		nRead += len(sl.readLat)
		rate = append(rate, float64(sl.acked)/wall)
		if sl.acked > 0 {
			cpuPer = append(cpuPer, srvCPU*1e6/float64(sl.acked))
		}
		if srvCPU > 0 {
			sysShare = append(sysShare, (c1.srvSys-c0.srvSys)/srvCPU)
		}
		selfShare = append(selfShare, ((c1.selfUser+c1.selfSys)-(c0.selfUser+c0.selfSys))/wall)
		p50, _ := percentile(sl.ingestLat, 0.50)
		p90, _ := percentile(sl.ingestLat, 0.90)
		p50s, p90s = append(p50s, p50), append(p90s, p90)
		if v, ok := percentile(sl.readLat, 0.90); ok || !run.sp.strict {
			read90s = append(read90s, v)
		}
	}
	res.set("ingest_samples_per_s", median(rate), acked)
	res.set("ingest_req_p50_ms", median(p50s), nIngest)
	res.set("ingest_req_p90_ms", median(p90s), nIngest)
	if run.sp.strict && nIngest-nIngest*9/10 < minBeyond {
		res.problem("only %d ingest requests in the window: too few for a p90 (need %d beyond it)", nIngest, minBeyond)
	}
	if len(cpuPer) > 0 {
		res.set("server_cpu_us_per_sample", median(cpuPer), acked)
	}
	if len(sysShare) > 0 {
		res.set("server.cpu_sys_share", median(sysShare), slices)
	}
	res.set("loadgen.cpu_share", median(selfShare), slices)
	if len(read90s) == slices && nRead > 0 {
		res.set("read_req_p90_ms", median(read90s), nRead)
	}
	// p99 is over the whole window, where it holds enough requests; it
	// is reported, not gated.
	sort.Float64s(allLat)
	if v, ok := percentile(allLat, 0.99); ok {
		res.set("loadgen.req_p99_ms", v, len(allLat))
	}
	if run.sp.kind == kindOpen {
		sort.Float64s(late)
		v, _ := percentile(late, 0.90)
		res.set("loadgen.late_ms_p90", v, len(late))
	}
}

// selfAccounting fails the run when the numbers would measure the
// generator instead of the program: an open loop whose own timer ran
// late, or a generator that took more than its share of the box.
func (run *onlineRun) selfAccounting(res *result) error {
	if late := res.metrics["loadgen.late_ms_p90"].value; late > ms64(maxLateP90) {
		return fmt.Errorf("%s: the generator ran late (p90 %.3f ms past due, limit %.3f ms); the latencies measure the generator", run.sp.name, late, ms64(maxLateP90))
	}
	if share := res.metrics["loadgen.cpu_share"].value; share > maxLoadgenCPUs {
		return fmt.Errorf("%s: the generator used %.2f cores (limit %.2f); the numbers measure the generator", run.sp.name, share, maxLoadgenCPUs)
	}
	return nil
}

func ms64(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// scrapeMetrics reads the server's Prometheus text. Each series is
// stored under its full name (labels included) and summed under its bare
// family name.
func scrapeMetrics(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	body, err := readAll(resp.Body, 16<<20)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		key := line[:i]
		out[key] = v
		if j := strings.IndexByte(key, '{'); j >= 0 {
			out[key[:j]] += v
		}
	}
	return out, nil
}
