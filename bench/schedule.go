package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"time"
)

type opKind uint8

const (
	opIngest opKind = iota
	opDelete
	opApps
	opPredict
	opMetrics
)

func (k opKind) isRead() bool { return k == opApps || k == opPredict || k == opMetrics }

// op is one pre-built request of the open-loop schedule.
type op struct {
	due     time.Duration // when it is due, from the start of the schedule
	kind    opKind
	method  string
	path    string
	ctype   string // Content-Type of body
	body    []byte
	samples int // ingest: the sample count the server must acknowledge
}

// schedule is the whole open-loop run, built before the first request is
// sent: every body is encoded and every due time fixed, so the generator
// only sleeps, sends and reads.
type schedule struct {
	// first is tick 0: every agent registers its instances. It is sent as
	// fast as the connections allow and ends set-up.
	first []op
	// ops are ticks 1 onward in due order.
	ops []op

	agents    int
	agentSize int
	// At the end of the schedule, per agent: the generation of its
	// instance IDs, the tick those IDs first appeared, and the last tick
	// it posted.
	gen, since, last []int
}

// agentInstanceID names instance j of agent a in generation g. A restart
// bumps the generation: same workload, new identity, as a rescheduled
// container has.
func agentInstanceID(a, j, g, agentSize, apps int) string {
	return fmt.Sprintf("app%02d/svc/n%d-%d-g%d", (a*agentSize+j)%apps, a, j, g)
}

func agentIDs(a, g int, sp spec) []string {
	ids := make([]string, sp.agentSize)
	for j := range ids {
		ids[j] = agentInstanceID(a, j, g, sp.agentSize, sp.apps)
	}
	return ids
}

// Offsets that keep the reader streams off the ingest slots' exact due
// times, so two requests are not due at the same instant by construction.
const (
	appsOffset    = 1300 * time.Microsecond
	predictOffset = 2700 * time.Microsecond
	metricsOffset = 3100 * time.Microsecond
)

// buildSchedule lays out the agents-json run for total seconds. All
// randomness — which agents restart at which tick, which instance each
// /predict reads — comes from seed.
func buildSchedule(sp spec, seed int64, tr *traffic, schemaHash string, total time.Duration) (*schedule, error) {
	agents := sp.instances / sp.agentSize
	if agents*sp.agentSize != sp.instances || agents < 8 {
		return nil, fmt.Errorf("schedule: %d instances do not split into at least 8 agents of %d", sp.instances, sp.agentSize)
	}
	rng := rand.New(rand.NewSource(seed))
	jb := newJSONBodies(tr, schemaHash)
	s := &schedule{
		agents: agents, agentSize: sp.agentSize,
		gen: make([]int, agents), since: make([]int, agents), last: make([]int, agents),
	}
	insts := func(a int) []int {
		out := make([]int, sp.agentSize)
		for j := range out {
			out[j] = a*sp.agentSize + j
		}
		return out
	}
	ingest := func(a, t int, due time.Duration) (op, error) {
		body, err := jb.body(t, agentIDs(a, s.gen[a], sp), insts(a))
		if err != nil {
			return op{}, err
		}
		return op{due: due, kind: opIngest, method: http.MethodPost, path: "/ingest", ctype: "application/json", body: body, samples: sp.agentSize}, nil
	}
	for a := 0; a < agents; a++ {
		o, err := ingest(a, 0, 0)
		if err != nil {
			return nil, err
		}
		s.first = append(s.first, o)
	}

	slot := time.Second / time.Duration(sp.ingestRate)
	nIngest := int(total / slot)
	lastTick := 1 + (nIngest-1)/agents
	// restarts[t] lists the agents that come back under new IDs at tick t.
	// Two ticks beyond the last are planned so the readers can look ahead.
	restarts := make([]map[int]bool, lastTick+3)
	perTick := agents / sp.restartOneIn
	for t := 1; t < len(restarts); t++ {
		restarts[t] = make(map[int]bool, perTick)
		for len(restarts[t]) < perTick {
			restarts[t][rng.Intn(agents)] = true
		}
	}
	// genAt is an agent's ID generation at each tick, for the readers.
	genAt := make([][]int, len(restarts))
	genAt[0] = make([]int, agents)
	for t := 1; t < len(genAt); t++ {
		genAt[t] = append([]int(nil), genAt[t-1]...)
		for a := range restarts[t] {
			genAt[t][a]++
		}
	}

	for j := 0; j < nIngest; j++ {
		t, a := 1+j/agents, j%agents
		due := time.Duration(j) * slot
		var old []string
		if restarts[t][a] {
			old = agentIDs(a, s.gen[a], sp)
			s.gen[a]++
			s.since[a] = t
		}
		o, err := ingest(a, t, due)
		if err != nil {
			return nil, err
		}
		s.ops = append(s.ops, o)
		s.last[a] = t
		// The node agent that restarted drops its old containers: one
		// DELETE per old ID, spread over the gap to the next ingest slot.
		for k, id := range old {
			s.ops = append(s.ops, op{
				due:    due + time.Duration(k+1)*slot/time.Duration(len(old)+1),
				kind:   opDelete,
				method: http.MethodDelete,
				path:   "/instances?id=" + id,
			})
		}
	}

	tickAt := func(due time.Duration) int { return 1 + int(due/slot)/agents }
	every := func(rate int, offset time.Duration, mk func(due time.Duration) op) {
		if rate <= 0 {
			return
		}
		period := time.Second / time.Duration(rate)
		for due := offset; due < total; due += period {
			s.ops = append(s.ops, mk(due))
		}
	}
	every(sp.appsRate, appsOffset, func(due time.Duration) op {
		return op{due: due, kind: opApps, method: http.MethodGet, path: "/apps"}
	})
	every(sp.metricsRate, metricsOffset, func(due time.Duration) op {
		return op{due: due, kind: opMetrics, method: http.MethodGet, path: "/metrics"}
	})
	every(sp.predictRate, predictOffset, func(due time.Duration) op {
		// Read an instance whose ID is not changing around now: its agent
		// restarts neither this tick nor a neighbouring one, so the read
		// cannot race the DELETE of the ID it names.
		t := tickAt(due)
		for {
			a := rng.Intn(agents)
			if restarts[t][a] || restarts[t+1][a] || (t > 1 && restarts[t-1][a]) {
				continue
			}
			id := agentInstanceID(a, rng.Intn(sp.agentSize), genAt[t][a], sp.agentSize, sp.apps)
			return op{due: due, kind: opPredict, method: http.MethodGet, path: "/predict?instance=" + id}
		}
	})
	sort.SliceStable(s.ops, func(i, j int) bool { return s.ops[i].due < s.ops[j].due })
	return s, nil
}
