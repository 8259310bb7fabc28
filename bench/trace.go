package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// The harness traces from outside: it records a span around each call
// it makes into a layer's public API, keeps the spans in memory and
// writes them out when the run ends. Spans inside the program are a
// later change.

// span is one timed call. Times are nanoseconds since the recorder
// started; Parent is the index of the span that caused this one (-1 for
// a root) and Req identifies the request all of its spans share.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
}

// recorder collects spans. A disabled recorder costs one branch per
// call, which is what the spans-off replay measures.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
}

func newRecorder(on bool) *recorder {
	return &recorder{on: on, t0: time.Now()}
}

// begin opens a span and returns its index (-1 when disabled).
func (r *recorder) begin(name string, parent, req int32) int32 {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, Req: req})
	return int32(len(r.spans) - 1)
}

// end closes a span opened by begin.
func (r *recorder) end(i int32) {
	if i >= 0 {
		r.spans[i].End = int64(time.Since(r.t0))
	}
}

// spanTotals sums, per span name, the duration and the self time: the
// duration minus the part of the interval that the span's direct
// children cover. Children may overlap one another (two goroutines under
// one request), so their coverage is the union of their intervals
// clipped to the parent.
func spanTotals(spans []span) (total, self map[string]int64) {
	total = make(map[string]int64)
	self = make(map[string]int64)
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i, s := range spans {
		d := s.End - s.Start
		total[s.Name] += d
		self[s.Name] += d - coverage(children[int32(i)], s.Start, s.End)
	}
	return total, self
}

// coverage returns the length of the union of the intervals, clipped to
// [lo, hi].
func coverage(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var covered int64
	curLo, curHi := int64(0), int64(-1)
	flush := func() {
		if curHi > curLo {
			covered += curHi - curLo
		}
	}
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if curHi < curLo || a > curHi {
			flush()
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	flush()
	return covered
}

// writeSpans dumps the spans with, per span name, how often it ran, its
// total duration and its self time.
func writeSpans(path string, spans []span) error {
	type nameSummary struct {
		Count   int   `json:"count"`
		TotalNS int64 `json:"total_ns"`
		SelfNS  int64 `json:"self_ns"`
	}
	total, self := spanTotals(spans)
	summary := make(map[string]*nameSummary, len(total))
	for name := range total {
		summary[name] = &nameSummary{TotalNS: total[name], SelfNS: self[name]}
	}
	for _, s := range spans {
		summary[s.Name].Count++
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Summary map[string]*nameSummary `json:"summary"`
		Spans   []span                  `json:"spans"`
	}{summary, spans})
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
