package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dvsync"
)

// TestWriteEventNonFinite: a sample row carrying NaN/Inf values must
// still reach the stream, with the non-finite columns encoded as null —
// before the fix json.Marshal rejected the payload and the event writer
// silently dropped the whole row.
func TestWriteEventNonFinite(t *testing.T) {
	var buf bytes.Buffer
	sw := &sseWriter{w: &buf}
	sw.event("sample", dvsync.TelemetryRow{
		AtNs:   5,
		Values: []float64{1, math.NaN(), math.Inf(1), 2.5},
	})
	want := "event: sample\ndata: {\"at_ns\":5,\"values\":[1,null,null,2.5]}\n\n"
	if got := buf.String(); got != want {
		t.Errorf("sseWriter.event emitted %q, want %q", got, want)
	}

	// The snapshot path shares the encoding: a registry holding a NaN
	// gauge must export valid JSON instead of vanishing.
	reg := dvsync.NewTelemetryRegistry()
	reg.Gauge("p99_latency_ms", "percentile of an empty window").Set(math.NaN())
	reg.Sample(0)
	var snap bytes.Buffer
	if err := reg.WriteJSON(&snap); err != nil {
		t.Fatalf("WriteJSON with a NaN gauge: %v", err)
	}
	if !json.Valid(snap.Bytes()) {
		t.Fatalf("snapshot is not valid JSON:\n%s", snap.String())
	}
	if !strings.Contains(snap.String(), "null") {
		t.Errorf("NaN gauge not exported as null:\n%s", snap.String())
	}
}

// TestRunnerCacheEvictionCompacts: FIFO eviction must compact the order
// slice in place. Once the cache is warm its capacity never moves again;
// the pre-fix re-slicing (order = order[1:]) shrank and reallocated the
// backing array on every eviction cycle, pinning evicted keys in the
// meantime.
func TestRunnerCacheEvictionCompacts(t *testing.T) {
	rn := &runner{}
	scenario := func(i int) params {
		p, err := newParams("dvsync", 60, 4, 100+i, 1, "", 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for i := 0; i < runnerCacheSize; i++ {
		rn.entry(scenario(i))
	}
	base := cap(rn.order)
	for i := runnerCacheSize; i < 20*runnerCacheSize; i++ {
		rn.entry(scenario(i))
		if got := cap(rn.order); got != base {
			t.Fatalf("eviction %d: order capacity moved %d -> %d; eviction re-slices the backing array instead of compacting", i, base, got)
		}
	}
	if base > 2*runnerCacheSize {
		t.Errorf("order capacity %d is unbounded (cache size %d)", base, runnerCacheSize)
	}
	if len(rn.order) != runnerCacheSize || len(rn.cache) != runnerCacheSize {
		t.Errorf("cache %d / order %d entries, want %d", len(rn.cache), len(rn.order), runnerCacheSize)
	}
	for _, k := range rn.order {
		if _, ok := rn.cache[k]; !ok {
			t.Fatalf("order holds evicted key %+v", k)
		}
	}
}

// TestFaultNoneOverride: fault=none (or an explicit empty fault=) clears
// the server's default fault class, so a server started with -fault can
// still serve clean runs — before the fix the default silently leaked
// back in. Severity alongside a cleared fault is rejected.
func TestFaultNoneOverride(t *testing.T) {
	faultedDef, err := newParams("dvsync", 60, 4, 120, 1, "stall", 0.8)
	if err != nil {
		t.Fatal(err)
	}
	faulted := httptest.NewServer(newServer(faultedDef, &runner{}))
	t.Cleanup(faulted.Close)
	clean := testServer(t) // same scenario defaults, no fault

	_, wantClean := get(t, clean.URL+"/metrics")
	code, defaulted := get(t, faulted.URL+"/metrics")
	if code != 200 || defaulted == wantClean {
		t.Fatalf("server default fault not applied (status %d)", code)
	}
	for _, path := range []string{"/metrics?fault=none", "/metrics?fault="} {
		code, cleared := get(t, faulted.URL+path)
		if code != 200 {
			t.Fatalf("%s: status %d", path, code)
		}
		if cleared != wantClean {
			t.Errorf("%s on a -fault server still differs from a clean server's scrape", path)
		}
	}
	if code, body := get(t, faulted.URL+"/metrics?fault=none&severity=0.3"); code != http.StatusBadRequest {
		t.Errorf("fault=none&severity: status %d (body %.120q), want 400", code, body)
	}
	// The override still composes: a different class replaces the default.
	if code, body := get(t, faulted.URL+"/metrics?fault=jitter"); code != 200 || body == defaulted {
		t.Errorf("fault=jitter override ineffective (status %d)", code)
	}
}

// fleetSpecJSON is the small census the endpoint tests POST: two cohorts
// where the second duplicates the first, so its cells are all cache hits.
const fleetSpecJSON = `{
  "name": "smoke",
  "frames": 80,
  "cohorts": [
    {"name": "a", "device": "pixel5", "hz": [60]},
    {"name": "a-again", "device": "pixel5", "hz": [60]}
  ]
}`

func postFleet(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/fleet", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.String()
}

// TestFleetEndpoint: POST /fleet streams one cohort event per cohort and
// a terminal fleet event whose accounting shows the duplicated cohort was
// served from the cache; a second census on the same server is all hits.
func TestFleetEndpoint(t *testing.T) {
	srv := testServer(t)
	code, body := postFleet(t, srv.URL, fleetSpecJSON)
	if code != 200 {
		t.Fatalf("status %d: %.300s", code, body)
	}
	if got := strings.Count(body, "event: cohort\n"); got != 2 {
		t.Errorf("cohort events = %d, want 2", got)
	}
	if got := strings.Count(body, "event: fleet\n"); got != 1 {
		t.Fatalf("fleet events = %d, want 1", got)
	}
	idx := strings.Index(body, "event: fleet\ndata: ")
	line := body[idx+len("event: fleet\ndata: "):]
	line = line[:strings.Index(line, "\n")]
	var res dvsync.FleetResult
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		t.Fatalf("fleet payload: %v", err)
	}
	// 2 cohorts × 1 hz × 2 modes × 1 replica = 4 cells, half duplicated.
	if res.Cells != 4 || res.UniqueCells != 2 || res.Simulated != 2 || res.CacheHits != 2 {
		t.Errorf("census accounting = %d cells / %d unique / %d simulated / %d hits, want 4/2/2/2",
			res.Cells, res.UniqueCells, res.Simulated, res.CacheHits)
	}

	// The engine is shared across requests: a repeat census simulates
	// nothing.
	_, again := postFleet(t, srv.URL, fleetSpecJSON)
	idx = strings.Index(again, "event: fleet\ndata: ")
	line = again[idx+len("event: fleet\ndata: "):]
	line = line[:strings.Index(line, "\n")]
	var warm dvsync.FleetResult
	if err := json.Unmarshal([]byte(line), &warm); err != nil {
		t.Fatal(err)
	}
	if warm.Simulated != 0 || warm.CacheHits != 4 {
		t.Errorf("warm census simulated %d / hits %d, want 0/4", warm.Simulated, warm.CacheHits)
	}

	// Fresh servers agree byte for byte: the stream is deterministic.
	srv2 := testServer(t)
	_, body2 := postFleet(t, srv2.URL, fleetSpecJSON)
	if body != body2 {
		t.Error("first census bodies differ between identical servers")
	}
}

// TestFleetEndpointRejections: malformed requests are plain HTTP errors
// before any stream starts.
func TestFleetEndpointRejections(t *testing.T) {
	srv := testServer(t)
	if code, body := get(t, srv.URL+"/fleet"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /fleet: status %d (body %.120q), want 405", code, body)
	}
	bad := []struct {
		name, body string
	}{
		{"empty body", ""},
		{"not json", "census please"},
		{"unknown field", `{"cohorts": [{"devise": "pixel5"}]}`},
		{"trailing data", `{"cohorts": [{}]} {"cohorts": [{}]}`},
		{"no cohorts", `{"cohorts": []}`},
		{"unknown device", `{"cohorts": [{"device": "iphone"}]}`},
		{"severity without fault", `{"cohorts": [{"severity": 0.5}]}`},
		{"too many buffers", `{"cohorts": [{"device": "pixel5", "buffers": 65}]}`},
		// 65 536 cells, within the cell bound, at 100 000 frames each.
		{"too many frames", `{"frames":100000,"replicas":4096,"cohorts":[{"hz":[60,61,62,63,64,65,66,67]}]}`},
	}
	for _, tc := range bad {
		code, body := postFleet(t, srv.URL, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (body %.120q), want 400", tc.name, code, body)
			continue
		}
		var payload struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(body), &payload); err != nil || payload.Error == "" {
			t.Errorf("%s: body %.120q is not a JSON error object", tc.name, body)
		}
	}
	resp, err := http.Post(srv.URL+"/fleet?x=1", "application/json", strings.NewReader(fleetSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("query parameters on /fleet: status %d, want 400", resp.StatusCode)
	}
}

// TestIndexMentionsFleet: the index document advertises the new endpoint
// and the fault=none escape hatch.
func TestIndexMentionsFleet(t *testing.T) {
	srv := testServer(t)
	_, body := get(t, srv.URL+"/")
	for _, want := range []string{"/fleet", "fault=none"} {
		if !strings.Contains(body, want) {
			t.Errorf("index does not mention %q:\n%s", want, body)
		}
	}
}
