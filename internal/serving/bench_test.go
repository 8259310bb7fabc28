package serving

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"monitorless/internal/pcp"
)

// benchObservation synthesizes one tick with n instances of realistic
// vector width.
func benchObservation(b *testing.B, svc *Service, tick, n int) pcp.WireObservation {
	b.Helper()
	width := len(svc.RawNames())
	w := pcp.WireObservation{T: tick}
	for i := 0; i < n; i++ {
		vec := make([]float64, width)
		for j := range vec {
			vec[j] = float64((i+1)*(j%13)) * 0.07
		}
		w.Samples = append(w.Samples, pcp.WireSample{Instance: instanceID(i), Values: vec})
	}
	return w
}

// BenchmarkServiceIngest measures the in-process ingest path: streaming
// feature step + forest vote for 8 instances per observation.
func BenchmarkServiceIngest(b *testing.B) {
	m, _ := sharedTestModel(b)
	svc, err := New(Config{Model: m})
	if err != nil {
		b.Fatal(err)
	}
	obs := benchObservation(b, svc, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs.T = i
		if _, err := svc.Ingest(obs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(8*b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkHTTPIngest measures the full round trip: JSON encode, HTTP
// POST over loopback, ingest, JSON response.
func BenchmarkHTTPIngest(b *testing.B) {
	m, _ := sharedTestModel(b)
	svc, err := New(Config{Model: m})
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(svc))
	defer srv.Close()
	obs := benchObservation(b, svc, 0, 8)
	client := srv.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs.T = i
		body, err := json.Marshal(obs)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := client.Post(srv.URL+"/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	b.ReportMetric(float64(8*b.N)/b.Elapsed().Seconds(), "samples/s")
}
