package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func bytesReader(b []byte) *bytes.Reader { return bytes.NewReader(b) }

func testScheduleSpec() spec {
	return spec{
		instances: 64, apps: 8, ticks: 4, agentSize: 4,
		ingestRate: 80, appsRate: 10, predictRate: 40, metricsRate: 2, restartOneIn: 4,
	}
}

func sameOps(a, b []op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].due != b[i].due || a[i].kind != b[i].kind || a[i].path != b[i].path ||
			a[i].samples != b[i].samples || !bytes.Equal(a[i].body, b[i].body) {
			return false
		}
	}
	return true
}

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	tr := testTraffic(t, 9)
	sp := testScheduleSpec()
	build := func(seed int64) *schedule {
		s, err := buildSchedule(sp, seed, tr, "hash", 3*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b, c := build(9), build(9), build(10)
	if !sameOps(a.first, b.first) || !sameOps(a.ops, b.ops) {
		t.Error("same seed gave different schedules")
	}
	if sameOps(a.ops, c.ops) {
		t.Error("different seeds gave the same churn and reads")
	}
}

func TestScheduleRatesOrderAndChurn(t *testing.T) {
	tr := testTraffic(t, 9)
	sp := testScheduleSpec()
	const total = 3 * time.Second
	s, err := buildSchedule(sp, 9, tr, "hash", total)
	if err != nil {
		t.Fatal(err)
	}
	agents := sp.instances / sp.agentSize
	if len(s.first) != agents {
		t.Fatalf("first tick has %d requests, want one per agent (%d)", len(s.first), agents)
	}
	count := map[opKind]int{}
	live := map[string]bool{}
	register := func(o op) {
		// IDs appear in the body as "instance":"<id>".
		for _, part := range strings.Split(string(o.body), `"instance":"`)[1:] {
			live[part[:strings.IndexByte(part, '"')]] = true
		}
	}
	for _, o := range s.first {
		register(o)
	}
	var prev time.Duration
	for i, o := range s.ops {
		if o.due < prev {
			t.Fatalf("op %d is due %v, before its predecessor %v", i, o.due, prev)
		}
		prev = o.due
		count[o.kind]++
		switch o.kind {
		case opIngest:
			register(o)
		case opDelete:
			id := strings.TrimPrefix(o.path, "/instances?id=")
			if !live[id] {
				t.Fatalf("op %d deletes %s, which was never registered or is already gone", i, id)
			}
			delete(live, id)
		case opPredict:
			id := strings.TrimPrefix(o.path, "/predict?instance=")
			if !live[id] {
				t.Fatalf("op %d reads %s, which is not registered at that point of the schedule", i, id)
			}
		}
	}
	secs := int(total / time.Second)
	for kind, want := range map[opKind]int{
		opIngest: sp.ingestRate * secs, opApps: sp.appsRate * secs,
		opPredict: sp.predictRate * secs, opMetrics: sp.metricsRate * secs,
	} {
		if count[kind] != want {
			t.Errorf("kind %d: %d requests, want %d", kind, count[kind], want)
		}
	}
	if count[opDelete] == 0 || count[opDelete]%sp.agentSize != 0 {
		t.Errorf("%d DELETEs: restarts must drop whole agents of %d", count[opDelete], sp.agentSize)
	}
	// Every restart re-registered before (or as) its old IDs went: the
	// fleet ends at full size under the final generation's IDs.
	if len(live) != sp.instances {
		t.Errorf("fleet ends with %d live instances, want %d", len(live), sp.instances)
	}
	for a := 0; a < agents; a++ {
		for _, id := range agentIDs(a, s.gen[a], sp) {
			if !live[id] {
				t.Fatalf("agent %d generation %d: %s is not live at the end", a, s.gen[a], id)
			}
		}
		if s.since[a] > s.last[a] {
			t.Errorf("agent %d: IDs since tick %d but last post at tick %d", a, s.since[a], s.last[a])
		}
	}
}
