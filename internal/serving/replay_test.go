package serving_test

import (
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"monitorless/internal/apps"
	"monitorless/internal/autoscale"
	"monitorless/internal/experiments"
	"monitorless/internal/serving"
)

// replayGolden pins the closed loop below: one "t:targets" line per tick
// that scaled out, then the autoscale.Result. It was recorded from the
// unsharded in-process predictor that preceded serving.Service as Table
// 7's inference path, so it proves the Service reproduces that policy's
// decisions tick for tick.
const replayGolden = "testdata/replay_teastore_seed54.golden"

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

// transcript renders a run in the golden's format.
func (l *decisionLog) transcript(res autoscale.Result) string {
	return strings.Join(l.lines, "\n") + "\n" + fmt.Sprintf("result %+v\n", res)
}

// TestReplayClosedLoopMatchesInProcess proves the online serving path
// closes the §2 loop: the Table 7 monitorless policy simulated on the
// in-process Service and with predictions fetched over HTTP must both
// make exactly the per-tick scaling decisions of the golden.
func TestReplayClosedLoopMatchesInProcess(t *testing.T) {
	m, _ := serving.SharedTestModel(t)
	want, err := os.ReadFile(replayGolden)
	if err != nil {
		t.Fatal(err)
	}

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

	// In-process: Simulate builds its own Service from the model.
	var local decisionLog
	optLocal := opt
	optLocal.OnDecision = local.hook()
	resLocal, err := autoscale.Simulate(build, autoscale.MonitorlessScaler{}, m, optLocal)
	if err != nil {
		t.Fatalf("in-process simulate: %v", err)
	}
	if len(local.lines) == 0 {
		t.Fatal("in-process run made no scaling decisions — scenario too quiet to prove anything")
	}
	if got := local.transcript(resLocal); got != string(want) {
		t.Fatalf("in-process decisions diverge from %s:\n--- golden ---\n%s--- in-process ---\n%s", replayGolden, want, got)
	}

	// Same policy with every prediction served over HTTP.
	svc, err := serving.New(serving.Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serving.NewServer(svc))
	defer srv.Close()

	var remote decisionLog
	optRemote := opt
	optRemote.Predictor = serving.NewClient(srv.URL)
	optRemote.OnDecision = remote.hook()
	resRemote, err := autoscale.Simulate(build, autoscale.MonitorlessScaler{}, nil, optRemote)
	if err != nil {
		t.Fatalf("HTTP simulate: %v", err)
	}
	if got := remote.transcript(resRemote); got != string(want) {
		t.Fatalf("HTTP decisions diverge from %s:\n--- golden ---\n%s--- HTTP ---\n%s", replayGolden, want, got)
	}

	// The server must have done real work during the loop.
	client := serving.NewClient(srv.URL)
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
