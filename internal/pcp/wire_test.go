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
	if back.T != obs.T || len(back.Samples) != 2 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	for _, s := range back.Samples {
		for i, v := range obs.Vectors[s.Instance] {
			if s.Values[i] != v {
				t.Fatalf("vector %s[%d] = %v, want %v", s.Instance, i, s.Values[i], v)
			}
		}
	}
	if back.SchemaHash != cat.SchemaHash() {
		t.Error("schema hash lost in round trip")
	}
}
