package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"

	"monitorless/internal/dataset"
	"monitorless/internal/frame"
	"monitorless/internal/pcp"
	"monitorless/internal/serving"
)

// traffic turns the seeded simulator corpus into a fleet: every instance
// replays `ticks` consecutive seconds of one Table 1 run, instances of
// the same run at different offsets, so a tick's vectors are realistic
// catalog-width samples that differ across the fleet without simulating
// thousands of containers one by one.
type traffic struct {
	rows  [][]float64
	spans []frame.Span
	ticks int
}

// trafficDuration is the simulated seconds per Table 1 run behind the
// traffic corpus.
const trafficDuration = 300

func newTraffic(seed int64, ticks int) (*traffic, error) {
	fr, _, err := dataset.GenerateFrame(dataset.Table1(), dataset.GenOptions{
		Duration:    trafficDuration,
		RampSeconds: 250,
		Seed:        seed,
	})
	if err != nil {
		return nil, fmt.Errorf("traffic corpus: %w", err)
	}
	tr := &traffic{rows: fr.MaterializeRows(), spans: fr.Spans(), ticks: ticks}
	for _, sp := range tr.spans {
		if sp.End-sp.Start <= ticks {
			return nil, fmt.Errorf("traffic corpus: run %d has %d rows, need more than %d", sp.ID, sp.End-sp.Start, ticks)
		}
	}
	return tr, nil
}

// row returns the corpus row instance inst emits at tick t.
func (tr *traffic) row(inst, t int) int {
	sp := tr.spans[inst%len(tr.spans)]
	phase := inst / len(tr.spans)
	base := (phase * tr.ticks) % (sp.End - sp.Start - tr.ticks)
	return sp.Start + base + t%tr.ticks
}

// vector returns the raw metric vector instance inst emits at tick t.
// The slice aliases the corpus; callers must not modify it.
func (tr *traffic) vector(inst, t int) []float64 { return tr.rows[tr.row(inst, t)] }

// fleetID names instance i of a closed-loop fleet ("<app>/<service>/<n>",
// so the server derives the app from the ID).
func fleetID(i, apps int) string {
	return fmt.Sprintf("app%02d/svc/%d", i%apps, i)
}

// wireTOffset is where a binary frame carries T: an int64 at bytes 6..14
// of the fixed header documented in internal/serving/wire.go. The
// generator advances T per send by rewriting it in the pre-encoded frame.
const wireTOffset = 6

func setFrameT(frame []byte, t int) {
	binary.LittleEndian.PutUint64(frame[wireTOffset:wireTOffset+8], uint64(int64(t)))
}

// fleetFrames pre-encodes every binary frame of a closed-loop workload:
// frames[tick][block] carries instances [block*frameSamples, …) at that
// tick. It asserts that rewriting T in place survives DecodeWire.
func fleetFrames(tr *traffic, sp spec, schemaHash string) ([][][]byte, error) {
	blocks := (sp.instances + sp.frameSamples - 1) / sp.frameSamples
	frames := make([][][]byte, sp.ticks)
	samples := make([]pcp.WireSample, 0, sp.frameSamples)
	for t := range frames {
		frames[t] = make([][]byte, blocks)
		for b := range frames[t] {
			samples = samples[:0]
			for i := b * sp.frameSamples; i < min((b+1)*sp.frameSamples, sp.instances); i++ {
				samples = append(samples, pcp.WireSample{Instance: fleetID(i, sp.apps), Values: tr.vector(i, t)})
			}
			buf, err := serving.AppendWire(nil, pcp.WireObservation{T: t, SchemaHash: schemaHash, Samples: samples})
			if err != nil {
				return nil, err
			}
			frames[t][b] = buf
		}
	}
	probe := append([]byte(nil), frames[0][0]...)
	const probeT = 1<<40 + 12345
	setFrameT(probe, probeT)
	obs, err := serving.DecodeWire(probe)
	if err != nil {
		return nil, fmt.Errorf("frame with rewritten T does not decode: %w", err)
	}
	want, err := serving.DecodeWire(frames[0][0])
	if err != nil {
		return nil, err
	}
	want.T = probeT
	if !reflect.DeepEqual(obs, want) {
		return nil, fmt.Errorf("rewriting T at byte %d changed more than T", wireTOffset)
	}
	return frames, nil
}

// jsonBodies assembles JSON observations from per-row value fragments
// marshalled once, so pre-encoding a whole schedule costs a copy per
// sample instead of formatting every float again.
type jsonBodies struct {
	tr         *traffic
	schemaHash string
	frag       map[int][]byte
}

func newJSONBodies(tr *traffic, schemaHash string) *jsonBodies {
	return &jsonBodies{tr: tr, schemaHash: schemaHash, frag: make(map[int][]byte)}
}

// body encodes the observation ids[k] ← instance insts[k] at tick t, in
// the field order encoding/json gives pcp.WireObservation.
func (jb *jsonBodies) body(t int, ids []string, insts []int) ([]byte, error) {
	buf := make([]byte, 0, len(ids)*4800) // ~18 bytes per value at catalog width
	buf = append(buf, `{"t":`...)
	buf = strconv.AppendInt(buf, int64(t), 10)
	buf = append(buf, `,"schema_hash":"`...)
	buf = append(buf, jb.schemaHash...)
	buf = append(buf, `","samples":[`...)
	for k, id := range ids {
		row := jb.tr.row(insts[k], t)
		fr := jb.frag[row]
		if fr == nil {
			var err error
			if fr, err = json.Marshal(jb.tr.rows[row]); err != nil {
				return nil, err
			}
			jb.frag[row] = fr
		}
		if k > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"instance":"`...)
		buf = append(buf, id...)
		buf = append(buf, `","values":`...)
		buf = append(buf, fr...)
		buf = append(buf, '}')
	}
	buf = append(buf, "]}"...)
	return buf, nil
}
