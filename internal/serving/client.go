package serving

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"monitorless/internal/pcp"
)

// Client talks to a Server over HTTP and satisfies the autoscaler's
// Predictor seam, so the §4.2.2 scaling loop can run against a remote
// model server instead of an in-process Service.
type Client struct {
	base string
	http *http.Client
	// Wire selects the binary batch frame encoding for /ingest (the JSON
	// compat encoding is the default). Both land on the same endpoint and
	// the same server-side ingest path.
	Wire bool

	wireBuf []byte
}

// NewClient returns a client for a server at base (e.g.
// "http://127.0.0.1:9090").
func NewClient(base string) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"),
		http: &http.Client{Timeout: 30 * time.Second},
	}
}

// get decodes one GET response into out.
func (c *Client) get(path string, out any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return fmt.Errorf("serving client: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serving client: GET %s: %s: %s", path, resp.Status, readError(resp.Body))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// readError extracts the error field of a JSON error envelope.
func readError(r io.Reader) string {
	var e apiError
	body, _ := io.ReadAll(io.LimitReader(r, 4096))
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(body))
}

// Schema fetches the server's expected raw-metric layout.
func (c *Client) Schema() (Schema, error) {
	var s Schema
	err := c.get("/schema", &s)
	return s, err
}

// Ingest ships one observation and returns the refreshed predictions.
// The observation travels as the sender stamped it: a schema hash from
// the agent's catalog lets the server refuse a vector laid out against
// another catalog.
func (c *Client) Ingest(obs pcp.WireObservation) (*IngestResponse, error) {
	contentType := "application/json"
	var body []byte
	var err error
	if c.Wire {
		contentType = WireContentType
		c.wireBuf, err = AppendWire(c.wireBuf[:0], obs)
		body = c.wireBuf
	} else {
		body, err = json.Marshal(obs)
	}
	if err != nil {
		return nil, fmt.Errorf("serving client: encode: %w", err)
	}
	resp, err := c.http.Post(c.base+"/ingest", contentType, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("serving client: POST /ingest: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serving client: POST /ingest: %s: %s", resp.Status, readError(resp.Body))
	}
	var out IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("serving client: decode ingest response: %w", err)
	}
	return &out, nil
}

// Predict ingests the observation over HTTP and returns the saturated
// instances among those in obs: the autoscaler's Predictor seam, served
// remotely (Service.Predict is the same contract in-process).
func (c *Client) Predict(obs pcp.WireObservation) (map[string]bool, error) {
	resp, err := c.Ingest(obs)
	if err != nil {
		return nil, err
	}
	return saturatedIn(resp.Predictions), nil
}

// Forget drops one instance's server-side state (scale-in) and reports
// whether the server knew it. Transport errors report false — a missed
// forget only leaves a stale prediction that ages out of the app it
// belonged to.
func (c *Client) Forget(id string) bool {
	req, err := http.NewRequest(http.MethodDelete, c.base+"/instances?id="+url.QueryEscape(id), nil)
	if err != nil {
		return false
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Metrics fetches the raw Prometheus text exposition.
func (c *Client) Metrics() (string, error) {
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return "", fmt.Errorf("serving client: GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("serving client: GET /metrics: %s", resp.Status)
	}
	return string(body), nil
}

// Healthz fetches the server's liveness stats.
func (c *Client) Healthz() (Stats, error) {
	var out struct {
		Status string `json:"status"`
		Stats
	}
	err := c.get("/healthz", &out)
	return out.Stats, err
}
