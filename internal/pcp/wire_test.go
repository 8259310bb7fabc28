package pcp

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestWireObservationRoundTrip(t *testing.T) {
	w := WireObservation{T: 17, SchemaHash: DefaultCatalog().SchemaHash(), Samples: []WireSample{
		{Instance: "tea/auth/0", Service: "auth", Values: []float64{1, 2, 3}},
		{Instance: "tea/db/1", Values: []float64{4, 5, 6}},
	}}
	blob, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var back WireObservation
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, w) {
		t.Fatalf("round trip changed the observation:\n got %+v\nwant %+v", back, w)
	}
}
