package serving

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"monitorless/internal/apps"
	"monitorless/internal/autoscale"
	"monitorless/internal/experiments"
)

// decisionLog records every tick's scale-out targets.
type decisionLog struct {
	lines []string
}

func (l *decisionLog) hook() func(int, []string) {
	return func(t int, targets []string) {
		if len(targets) > 0 {
			l.lines = append(l.lines, fmt.Sprintf("%d:%s", t, strings.Join(targets, ",")))
		}
	}
}

// TestReplayClosedLoopMatchesInProcess proves the online serving path
// closes the §2 loop: the Table 7 monitorless policy simulated with
// predictions fetched over HTTP must make exactly the per-tick scaling
// decisions of the in-process orchestrator path.
func TestReplayClosedLoopMatchesInProcess(t *testing.T) {
	m, _ := sharedTestModel(t)

	build := func() (*autoscale.Env, error) {
		eng, tea, err := experiments.BuildTeaStore(experiments.SockshopInterferenceRate, 7)(
			apps.TeaStoreLoad(experiments.TeaStoreBase, 9))
		if err != nil {
			return nil, err
		}
		return &autoscale.Env{Engine: eng, Target: tea, Cluster: eng.Cluster()}, nil
	}
	// 1100 ticks: the small-scale TeaStore trace first saturates around
	// t≈835, so shorter horizons never exercise a scaling decision.
	opt := autoscale.Options{
		Duration:        1100,
		ReplicaLifespan: 120,
		SLORt:           0.75,
		SLOFailFrac:     0.10,
		Couple:          [][]string{{"recommender", "auth"}},
		Seed:            54,
	}

	// Reference: in-process inference.
	var local decisionLog
	optLocal := opt
	optLocal.OnDecision = local.hook()
	resLocal, err := autoscale.Simulate(build, autoscale.MonitorlessScaler{}, m, optLocal)
	if err != nil {
		t.Fatalf("in-process simulate: %v", err)
	}

	// Same policy with every prediction served over HTTP.
	svc, err := New(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(svc))
	defer srv.Close()

	var remote decisionLog
	optRemote := opt
	optRemote.Predictor = NewClient(srv.URL)
	optRemote.OnDecision = remote.hook()
	resRemote, err := autoscale.Simulate(build, autoscale.MonitorlessScaler{}, nil, optRemote)
	if err != nil {
		t.Fatalf("HTTP simulate: %v", err)
	}

	if len(local.lines) == 0 {
		t.Fatal("reference run made no scaling decisions — scenario too quiet to prove anything")
	}
	if got, want := strings.Join(remote.lines, "\n"), strings.Join(local.lines, "\n"); got != want {
		t.Fatalf("HTTP decisions diverge from in-process:\n--- in-process ---\n%s\n--- HTTP ---\n%s", want, got)
	}
	if resRemote != resLocal {
		t.Fatalf("simulation results diverge:\nin-process %+v\nHTTP       %+v", resLocal, resRemote)
	}

	// The server must have done real work during the loop.
	client := NewClient(srv.URL)
	metrics, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	// One observation per tick except the first (rate metrics need a
	// predecessor sample, so the agent withholds t=0).
	if !strings.Contains(metrics, "monitorless_ingest_observations_total 1099") {
		t.Error("server did not see one observation per simulated tick")
	}
	// /healthz answers and agrees with the scraped sample counter.
	stats, err := client.Healthz()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Instances == 0 {
		t.Error("/healthz reports no tracked instances after the loop")
	}
	if want := fmt.Sprintf("monitorless_ingest_samples_total %.0f\n", stats.SamplesTotal); !strings.Contains(metrics, want) {
		t.Errorf("/healthz samples_total %.0f does not match the /metrics counter", stats.SamplesTotal)
	}
}
