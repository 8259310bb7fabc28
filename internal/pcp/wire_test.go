package pcp

import (
	"encoding/json"
	"testing"
)

func TestWireObservationRoundTrip(t *testing.T) {
	obs := Observation{T: 17, Vectors: map[string][]float64{
		"tea/auth/0": {1, 2, 3},
		"tea/db/1":   {4, 5, 6},
	}}
	cat := DefaultCatalog()
	w := ToWire(obs, cat.SchemaHash(), map[string]string{"tea/auth/0": "auth"})
	if len(w.Samples) != 2 || w.Samples[0].Instance != "tea/auth/0" {
		t.Fatalf("wire samples not sorted: %+v", w.Samples)
	}
	if w.Samples[0].Service != "auth" || w.Samples[1].Service != "" {
		t.Fatalf("service annotation wrong: %+v", w.Samples)
	}

	blob, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var back WireObservation
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.Observation()
	if err != nil {
		t.Fatal(err)
	}
	if got.T != obs.T || len(got.Vectors) != 2 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	for id, vec := range obs.Vectors {
		for i, v := range vec {
			if got.Vectors[id][i] != v {
				t.Fatalf("vector %s[%d] = %v, want %v", id, i, got.Vectors[id][i], v)
			}
		}
	}
	if back.SchemaHash != cat.SchemaHash() {
		t.Error("schema hash lost in round trip")
	}
}

func TestWireObservationRejectsMalformed(t *testing.T) {
	bad := WireObservation{T: 1, Samples: []WireSample{{Instance: "", Values: []float64{1}}}}
	if _, err := bad.Observation(); err == nil {
		t.Error("empty instance ID accepted")
	}
	dup := WireObservation{T: 1, Samples: []WireSample{
		{Instance: "a/x/0", Values: []float64{1}},
		{Instance: "a/x/0", Values: []float64{2}},
	}}
	if _, err := dup.Observation(); err == nil {
		t.Error("duplicate instance ID accepted")
	}
}
