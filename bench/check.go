package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"

	"monitorless/internal/pcp"
	"monitorless/internal/serving"
)

// newReference builds the in-process service the checks and the layer
// replay compare the server against: same bundle, same flags.
func (run *onlineRun) newReference() (*serving.Service, error) {
	cfg := serving.Config{
		Model:         run.bundle.Model,
		BundleVersion: run.bundle.Version,
		// cmd/serve's defaults.
		DebounceK: 3, DebounceN: 5, ClearBelow: 1,
	}
	if run.sp.driftOff {
		cfg.DriftWindow = -1
	}
	return serving.New(cfg)
}

// checked is one instance of the seeded subset: its ID on the server,
// its traffic index, and the ticks [from, to] the server accepted for it.
type checked struct {
	id       string
	inst     int
	from, to int
}

// subset picks the seeded served-prediction sample.
func (run *onlineRun) subset() []checked {
	rng := rand.New(rand.NewSource(run.seed ^ 0x5eed))
	n := min(run.sp.checkInstances, run.sp.instances)
	var out []checked
	for _, inst := range rng.Perm(run.sp.instances)[:n] {
		if run.sp.kind == kindClosed {
			block := inst / run.sp.frameSamples
			out = append(out, checked{id: fleetID(inst, run.sp.apps), inst: inst, from: 0, to: run.sent[block] - 1})
			continue
		}
		a, j := inst/run.sp.agentSize, inst%run.sp.agentSize
		s := run.sched
		out = append(out, checked{
			id:   agentInstanceID(a, j, s.gen[a], run.sp.agentSize, run.sp.apps),
			inst: inst, from: s.since[a], to: s.last[a],
		})
	}
	return out
}

// checkServed replays, for a seeded subset of instances, every tick the
// server accepted through an in-process Service on the same bundle and
// requires the server's GET /predict to agree bit for bit; it also
// requires /healthz to count exactly the instances and samples the
// generator had acknowledged. Instances never interact inside the
// service, so replaying the subset alone reproduces their predictions.
func (run *onlineRun) checkServed(res *result) {
	ref, err := run.newReference()
	if err != nil {
		res.problem("reference service: %v", err)
		return
	}
	sub := run.subset()
	lo, hi := math.MaxInt, 0
	for _, c := range sub {
		lo, hi = min(lo, c.from), max(hi, c.to)
	}
	for t := lo; t <= hi; t++ {
		obs := pcp.WireObservation{T: t, SchemaHash: run.bundle.SchemaHash}
		for _, c := range sub {
			if t >= c.from && t <= c.to {
				obs.Samples = append(obs.Samples, pcp.WireSample{Instance: c.id, Values: run.tr.vector(c.inst, t)})
			}
		}
		if len(obs.Samples) == 0 {
			continue
		}
		resp, err := ref.IngestQuiet(obs)
		if err != nil {
			res.problem("reference replay tick %d: %v", t, err)
			return
		}
		ref.PutResponse(resp)
	}
	for _, c := range sub {
		want, ok := ref.InstancePrediction(c.id)
		if !ok {
			res.problem("reference lost instance %s", c.id)
			continue
		}
		var got serving.Prediction
		if err := getJSON(run.srv.base+"/predict?instance="+url.QueryEscape(c.id), &got); err != nil {
			res.problem("GET /predict %s: %v", c.id, err)
			continue
		}
		if math.Float64bits(got.Prob) != math.Float64bits(want.Prob) || got.Saturated != want.Saturated ||
			got.Samples != want.Samples || got.T != want.T {
			res.problem("served prediction for %s is {prob %v sat %v samples %d t %d}, in-process replay gives {prob %v sat %v samples %d t %d}",
				c.id, got.Prob, got.Saturated, got.Samples, got.T, want.Prob, want.Saturated, want.Samples, want.T)
		}
	}

	var health struct {
		Status string `json:"status"`
		serving.Stats
	}
	if err := getJSON(run.srv.base+"/healthz", &health); err != nil {
		res.problem("GET /healthz: %v", err)
		return
	}
	// Every acknowledged sample since the server started: the set-up tick
	// plus every successful ingest, inside the window or not.
	wantSamples := run.sp.instances
	for _, d := range run.reqs {
		if d.kind == opIngest {
			wantSamples += d.samples
		}
	}
	if health.Instances != run.sp.instances {
		res.problem("/healthz tracks %d instances, want %d", health.Instances, run.sp.instances)
	}
	if int(health.SamplesTotal) != wantSamples {
		res.problem("/healthz counted %.0f samples, the generator had %d acknowledged", health.SamplesTotal, wantSamples)
	}
	if health.Apps != run.sp.apps {
		res.problem("/healthz aggregates %d apps, want %d", health.Apps, run.sp.apps)
	}
}

func getJSON(u string, v any) error {
	resp, err := http.Get(u)
	if err != nil {
		return err
	}
	body, err := readAll(resp.Body, 16<<20)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, body)
	}
	return json.Unmarshal(body, v)
}
