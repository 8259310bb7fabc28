// Package autoscale implements the paper's §4.2.2 autoscaling study: a
// set of scaling policies (optimally tuned CPU/MEM threshold rules, the
// monitorless predictor, the a-posteriori response-time scaler and the
// no-scaling baseline), a replica lifecycle with the paper's 120-second
// lifespan, and SLO accounting (violation when the 1-second average
// response time exceeds 750 ms, any request is dropped, or more than 10%
// of requests fail).
package autoscale

import (
	"fmt"
	"sort"

	"monitorless/internal/apps"
	"monitorless/internal/cluster"
	"monitorless/internal/core"
	"monitorless/internal/pcp"
	"monitorless/internal/serving"
)

// InstanceInfo is one service instance's state as seen by a scaler.
type InstanceInfo struct {
	// ID and Service identify the instance.
	ID, Service string
	// CPUUtil / MemUtil are relative utilizations in percent.
	CPUUtil, MemUtil float64
	// Predicted is the monitorless saturation inference (false for
	// scalers that do not use the model).
	Predicted bool
}

// Snapshot is the per-tick input to a scaling policy.
type Snapshot struct {
	// T is the simulation second.
	T int
	// AppRT is the application's end-to-end mean response time.
	AppRT float64
	// Instances lists the target application's instances.
	Instances []InstanceInfo
}

// Scaler decides which services need an additional replica.
type Scaler interface {
	// Name labels the policy in result tables.
	Name() string
	// Decide returns the service names to scale out at this tick.
	Decide(s Snapshot) []string
}

// ThresholdScaler is the paper's baseline family: scale a service when a
// static utilization threshold fires on any of its instances.
type ThresholdScaler struct {
	// Label names the policy ("CPU (95%)", "CPU-AND-MEM", ...).
	Label string
	// UseCPU / UseMem select the inputs; And combines them
	// conjunctively, otherwise disjunctively.
	UseCPU, UseMem bool
	And            bool
	// CPUThr / MemThr are percentages.
	CPUThr, MemThr float64
}

var _ Scaler = (*ThresholdScaler)(nil)

// Name implements Scaler.
func (t *ThresholdScaler) Name() string { return t.Label }

// Fires reports whether the rule triggers for one instance.
func (t *ThresholdScaler) Fires(inst InstanceInfo) bool {
	cpu := inst.CPUUtil >= t.CPUThr
	mem := inst.MemUtil >= t.MemThr
	switch {
	case t.UseCPU && t.UseMem && t.And:
		return cpu && mem
	case t.UseCPU && t.UseMem:
		return cpu || mem
	case t.UseCPU:
		return cpu
	case t.UseMem:
		return mem
	default:
		return false
	}
}

// Decide implements Scaler.
func (t *ThresholdScaler) Decide(s Snapshot) []string {
	seen := map[string]bool{}
	var out []string
	for _, inst := range s.Instances {
		if t.Fires(inst) && !seen[inst.Service] {
			seen[inst.Service] = true
			out = append(out, inst.Service)
		}
	}
	sort.Strings(out)
	return out
}

// MonitorlessScaler scales any service whose instance the model predicts
// saturated (§4: scaling saturated instances is desirable even when the
// end-to-end KPI has not degraded yet).
type MonitorlessScaler struct{}

var _ Scaler = (*MonitorlessScaler)(nil)

// Name implements Scaler.
func (MonitorlessScaler) Name() string { return "monitorless" }

// Decide implements Scaler.
func (MonitorlessScaler) Decide(s Snapshot) []string {
	seen := map[string]bool{}
	var out []string
	for _, inst := range s.Instances {
		if inst.Predicted && !seen[inst.Service] {
			seen[inst.Service] = true
			out = append(out, inst.Service)
		}
	}
	sort.Strings(out)
	return out
}

// RTScaler is the paper's "optimal" baseline: it watches the measured
// end-to-end response time (the SLO itself) and scales a fixed set of
// services (the paper scales Recommender and Auth, chosen with
// application knowledge).
type RTScaler struct {
	// SLO is the response-time trigger in seconds (paper: 0.75).
	SLO float64
	// Services is the application-knowledge target set.
	Services []string
}

var _ Scaler = (*RTScaler)(nil)

// Name implements Scaler.
func (r *RTScaler) Name() string { return "RT-based (optimal)" }

// Decide implements Scaler.
func (r *RTScaler) Decide(s Snapshot) []string {
	if s.AppRT > r.SLO {
		out := append([]string(nil), r.Services...)
		sort.Strings(out)
		return out
	}
	return nil
}

// NoScaling is the static baseline.
type NoScaling struct{}

var _ Scaler = (*NoScaling)(nil)

// Name implements Scaler.
func (NoScaling) Name() string { return "No Scaling (baseline)" }

// Decide implements Scaler.
func (NoScaling) Decide(Snapshot) []string { return nil }

// Predictor supplies per-instance saturation predictions for one tick's
// observation, in the wire form the agent emits (pcp.Agent.Observe). It
// is the seam between the scaling loop and the one fleet state,
// serving.Service: in-process the Service itself implements it, over the
// wire a serving.Client ships the observation to a remote model server,
// closing the §2 loop over HTTP.
type Predictor interface {
	// Predict ingests one observation and returns the saturated instances
	// among those in obs. The observation's samples alias the agent's
	// buffers: Predict consumes them before it returns and keeps none.
	Predict(obs pcp.WireObservation) (map[string]bool, error)
	// Forget drops a departed instance's inference state (scale-in) and
	// reports whether the instance was known.
	Forget(id string) bool
}

// Options configures a scaling simulation.
type Options struct {
	// Duration is the simulated seconds.
	Duration int
	// ReplicaLifespan is the scale-in delay (paper: 120 s).
	ReplicaLifespan int
	// SLORt / SLOFailFrac define a violation (paper: 750 ms / 10%).
	SLORt       float64
	SLOFailFrac float64
	// Couple lists service groups that always scale together (the paper
	// ties Recommender and Auth for fairness).
	Couple [][]string
	// MaxExtraReplicas bounds concurrent extra replicas per service.
	MaxExtraReplicas int
	// Warmup skips SLO accounting for the first ticks.
	Warmup int
	// Seed drives metric collection noise.
	Seed int64
	// Predictor overrides the in-process inference path: when set, each
	// tick's observation goes through it instead of a serving.Service built
	// from the model argument (e.g. a serving.Client for over-the-wire
	// inference).
	Predictor Predictor
	// OnDecision, when set, observes every tick's scale-out targets
	// (after coupling). Used by the replay driver to prove the online
	// path reproduces the offline policy decisions.
	OnDecision func(t int, targets []string)
}

func (o Options) withDefaults() Options {
	if o.Duration <= 0 {
		o.Duration = 2000
	}
	if o.ReplicaLifespan <= 0 {
		o.ReplicaLifespan = 120
	}
	if o.SLORt <= 0 {
		o.SLORt = 0.75
	}
	if o.SLOFailFrac <= 0 {
		o.SLOFailFrac = 0.10
	}
	if o.MaxExtraReplicas <= 0 {
		o.MaxExtraReplicas = 1
	}
	if o.Warmup <= 0 {
		o.Warmup = 5
	}
	return o
}

// Result summarizes one policy's simulation (one Table 7 row).
type Result struct {
	// Policy is the scaler name.
	Policy string
	// SLOViolations counts 1-second intervals violating the SLO.
	SLOViolations int
	// ProvisioningPct is the time-averaged extra container count
	// relative to the non-scaled deployment, in percent.
	ProvisioningPct float64
	// ScaleOuts counts replica launches.
	ScaleOuts int
}

// Env builds a fresh simulation environment for one policy run: the
// engine, the target application, and the cluster to place replicas on.
type Env struct {
	Engine  *apps.Engine
	Target  *apps.App
	Cluster *cluster.Cluster
}

// BuildEnv constructs a fresh Env; policies must not share engines.
type BuildEnv func() (*Env, error)

// replica tracks a scale-out with its expiry tick.
type replica struct {
	id      string
	service string
	expiry  int
}

// Simulate runs one policy over a freshly built environment. model may be
// nil for policies that do not use monitorless predictions.
func Simulate(build BuildEnv, scaler Scaler, model *core.Model, opt Options) (Result, error) {
	opt = opt.withDefaults()
	env, err := build()
	if err != nil {
		return Result{}, fmt.Errorf("autoscale: build: %w", err)
	}

	predictor := opt.Predictor
	if predictor == nil && model != nil {
		// Drift monitoring is off and the zero debounce is 1-of-1: the
		// scaler reads each tick's raw per-instance verdicts.
		svc, err := serving.New(serving.Config{Model: model, DriftWindow: -1})
		if err != nil {
			return Result{}, fmt.Errorf("autoscale: %w", err)
		}
		predictor = svc
	}
	var agent *pcp.Agent
	if predictor != nil {
		agent = pcp.NewAgent(pcp.NewCollector(pcp.DefaultCatalog(), opt.Seed))
	}

	baseline := 0
	baseCount := map[string]int{}
	for _, s := range env.Target.Services() {
		baseCount[s.Name] = len(s.Instances())
		baseline += len(s.Instances())
	}

	var (
		live        []replica
		nextID      int
		violations  int
		containerSm float64
		ticksSm     int
		scaleOuts   int
	)

	for t := 0; t < opt.Duration; t++ {
		env.Engine.Tick()

		// Monitorless inference path.
		predicted := map[string]bool{}
		if agent != nil {
			if obs, ok := agent.Observe(env.Engine); ok {
				sat, err := predictor.Predict(obs)
				if err != nil {
					return Result{}, fmt.Errorf("autoscale: predict at t=%d: %w", t, err)
				}
				// Map-range order is safe here: this only builds a set;
				// every read of `predicted` is a keyed lookup.
				for id, s := range sat {
					if s {
						predicted[id] = true
					}
				}
			}
		}

		// Expire replicas after their lifespan.
		kept := live[:0]
		for _, r := range live {
			if t < r.expiry {
				kept = append(kept, r)
				continue
			}
			if svc, ok := env.Target.Service(r.service); ok {
				svc.RemoveInstance(r.id)
			}
			if err := env.Cluster.Remove(r.id); err != nil {
				return Result{}, fmt.Errorf("autoscale: scale-in %s: %w", r.id, err)
			}
			if predictor != nil {
				predictor.Forget(r.id)
			}
		}
		live = kept

		// Build the snapshot.
		snap := Snapshot{T: t, AppRT: env.Target.KPI.AvgRT}
		for _, s := range env.Target.Services() {
			for _, inst := range s.Instances() {
				st := inst.State
				cpu := 0.0
				if st.CPULimit > 0 {
					cpu = 100 * st.CPUGranted / st.CPULimit
				}
				mem := 0.0
				limit := st.MemLimitGB
				if limit <= 0 && inst.Ctr.Node() != nil {
					limit = inst.Ctr.Node().MemGB
				}
				if limit > 0 {
					mem = 100 * st.MemUsedGB / limit
				}
				snap.Instances = append(snap.Instances, InstanceInfo{
					ID:        inst.Ctr.ID,
					Service:   s.Name,
					CPUUtil:   cpu,
					MemUtil:   mem,
					Predicted: predicted[inst.Ctr.ID],
				})
			}
		}

		// Decide, apply coupling, scale out.
		targets := applyCoupling(scaler.Decide(snap), opt.Couple)
		if opt.OnDecision != nil {
			opt.OnDecision(t, targets)
		}
		for _, svcName := range targets {
			svc, ok := env.Target.Service(svcName)
			if !ok {
				continue
			}
			extra := len(svc.Instances()) - baseCount[svcName]
			if extra >= opt.MaxExtraReplicas {
				continue
			}
			node := env.Cluster.LeastLoadedNode()
			if node == nil {
				continue
			}
			orig := svc.Instances()[0].Ctr
			id := fmt.Sprintf("%s/%s/r%d", env.Target.Name, svcName, nextID)
			nextID++
			ctr := &cluster.Container{
				ID:         id,
				Service:    svcName,
				App:        env.Target.Name,
				CPULimit:   orig.CPULimit,
				MemLimitGB: orig.MemLimitGB,
			}
			if err := env.Cluster.Place(node.Name, ctr); err != nil {
				return Result{}, fmt.Errorf("autoscale: scale-out %s: %w", id, err)
			}
			svc.AddInstance(ctr)
			live = append(live, replica{id: id, service: svcName, expiry: t + opt.ReplicaLifespan})
			scaleOuts++
		}

		// SLO accounting.
		if t >= opt.Warmup {
			kpi := env.Target.KPI
			if kpi.AvgRT > opt.SLORt || kpi.FailFrac > opt.SLOFailFrac || kpi.DropRate > 0.5 {
				violations++
			}
			total := 0
			for _, s := range env.Target.Services() {
				total += len(s.Instances())
			}
			containerSm += float64(total)
			ticksSm++
		}
	}

	avg := containerSm / float64(ticksSm)
	return Result{
		Policy:          scaler.Name(),
		SLOViolations:   violations,
		ProvisioningPct: 100 * (avg - float64(baseline)) / float64(baseline),
		ScaleOuts:       scaleOuts,
	}, nil
}

// applyCoupling expands the target set so coupled services scale together.
func applyCoupling(targets []string, couple [][]string) []string {
	if len(couple) == 0 {
		return targets
	}
	set := map[string]bool{}
	for _, t := range targets {
		set[t] = true
	}
	for _, group := range couple {
		hit := false
		for _, g := range group {
			if set[g] {
				hit = true
				break
			}
		}
		if hit {
			for _, g := range group {
				set[g] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
