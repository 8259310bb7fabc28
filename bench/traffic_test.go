package main

import (
	"encoding/json"
	"reflect"
	"testing"

	"monitorless/internal/pcp"
	"monitorless/internal/serving"
)

func testTraffic(t *testing.T, seed int64) *traffic {
	t.Helper()
	tr, err := newTraffic(seed, 4)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRewrittenTRoundTripsThroughDecodeWire(t *testing.T) {
	tr := testTraffic(t, 5)
	sp := spec{instances: 100, apps: 8, ticks: 4, frameSamples: 32}
	hash := pcp.DefaultCatalog().SchemaHash()
	frames, err := fleetFrames(tr, sp, hash)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 4 || len(frames[0]) != 4 {
		t.Fatalf("got %d ticks of %d frames, want 4 of 4", len(frames), len(frames[0]))
	}
	if n := frameSamples(frames[0][3]); n != 4 {
		t.Errorf("last block carries %d samples, want the 4 left over", n)
	}
	frame := frames[2][1]
	before, err := serving.DecodeWire(frame)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []int{0, 1, 86399, 1 << 33, -7} {
		setFrameT(frame, want)
		got, err := serving.DecodeWire(frame)
		if err != nil {
			t.Fatalf("T=%d: %v", want, err)
		}
		if got.T != want {
			t.Errorf("decoded T = %d, want %d", got.T, want)
		}
		got.T = before.T
		if !reflect.DeepEqual(got, before) {
			t.Errorf("rewriting T to %d changed the rest of the frame", want)
		}
	}
	// Block 1 of tick 2 carries instances 32..63 with that tick's vectors.
	if before.SchemaHash != hash || before.Samples[0].Instance != fleetID(32, 8) ||
		!reflect.DeepEqual(before.Samples[5].Values, tr.vector(37, 2)) {
		t.Errorf("frame content does not match the traffic source")
	}
}

func TestJSONBodyDecodesToTheObservationItEncodes(t *testing.T) {
	tr := testTraffic(t, 5)
	jb := newJSONBodies(tr, "abc123")
	ids, insts := []string{"app01/svc/n0-0-g0", "app02/svc/n0-1-g3"}, []int{40, 41}
	body, err := jb.body(7, ids, insts)
	if err != nil {
		t.Fatal(err)
	}
	var got pcp.WireObservation
	dec := json.NewDecoder(bytesReader(body))
	dec.DisallowUnknownFields() // as the handler decodes
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	want := pcp.WireObservation{T: 7, SchemaHash: "abc123", Samples: []pcp.WireSample{
		{Instance: ids[0], Values: tr.vector(40, 7)},
		{Instance: ids[1], Values: tr.vector(41, 7)},
	}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded observation differs from the one encoded")
	}
}

func TestTrafficIsSeededAndCyclesItsTicks(t *testing.T) {
	a, b, c := testTraffic(t, 5), testTraffic(t, 5), testTraffic(t, 6)
	if !reflect.DeepEqual(a.rows, b.rows) {
		t.Error("same seed gave different traffic")
	}
	if reflect.DeepEqual(a.rows, c.rows) {
		t.Error("different seeds gave the same traffic")
	}
	if !reflect.DeepEqual(a.vector(3, 1), a.vector(3, 5)) {
		t.Error("tick 5 should repeat tick 1 with 4 cycled ticks")
	}
	if reflect.DeepEqual(a.vector(3, 1), a.vector(3+len(a.spans), 1)) {
		t.Error("instances of one run at different offsets emit the same vector")
	}
}
