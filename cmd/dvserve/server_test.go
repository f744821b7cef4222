package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"dvsync/internal/sim"
	"dvsync/internal/telemetry"
)

// runCLI invokes the CLI entry point and returns exit code + streams.
// Only non-serving paths terminate, so valid-flag invocations are not
// driven through here.
func runCLI(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestUsageErrors: invalid flags exit 2 with a diagnostic, before any
// listener is opened. Each case pairs bad scenario flags with an
// unbindable address: an exit of 1 (listen error) instead of 2 would
// mean the port was touched before validation.
func TestUsageErrors(t *testing.T) {
	const badAddr = "256.256.256.256:0"
	cases := [][]string{
		{"-mode", "both"},
		{"-mode", ""},
		{"-hz", "0"},
		{"-hz", "2000"},
		{"-buffers", "1"},
		{"-frames", "0"},
		{"-frames", "-5"},
		{"-fault", "bogus"},
		{"-fault", "stall", "-fault-severity", "1.5"},
		{"stray-arg"},
	}
	for _, args := range cases {
		args = append([]string{"-addr", badAddr}, args...)
		code, _, stderr := runCLI(args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, stderr)
		}
		if stderr == "" {
			t.Errorf("%v: no diagnostic", args)
		}
	}
	// With valid flags the same unbindable address is a runtime error.
	if code, _, _ := runCLI("-addr", badAddr); code != 1 {
		t.Errorf("unbindable address with valid flags: want exit 1")
	}
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	return testServerWith(t, &runner{})
}

// testDefaults is the default scenario of every test server.
func testDefaults(t *testing.T) params {
	t.Helper()
	def, err := newParams("dvsync", 60, 4, 120, 1, "", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return def
}

func testServerWith(t *testing.T, rn *runner) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(newServer(testDefaults(t), rn))
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestDeterministicScrapes: identical parameters yield byte-identical
// bodies on repeated scrapes; different parameters yield different ones.
func TestDeterministicScrapes(t *testing.T) {
	srv := testServer(t)
	for _, path := range []string{"/metrics", "/snapshot", "/metrics?mode=vsync&seed=9"} {
		code1, body1 := get(t, srv.URL+path)
		code2, body2 := get(t, srv.URL+path)
		if code1 != 200 || code2 != 200 {
			t.Fatalf("%s: status %d/%d", path, code1, code2)
		}
		if body1 != body2 {
			t.Errorf("%s: repeated scrapes differ", path)
		}
	}
	_, dv := get(t, srv.URL+"/metrics")
	_, vs := get(t, srv.URL+"/metrics?mode=vsync")
	if dv == vs {
		t.Error("mode override had no effect on exposition")
	}
	if !strings.Contains(dv, "dvsync_frames_presented_total") {
		t.Errorf("exposition lacks frames-presented counter:\n%.300s", dv)
	}
}

// TestQueryValidation: malformed or unknown query parameters are a 400
// carrying a JSON {"error": ...} body, never a 500 or a silent default
// run.
func TestQueryValidation(t *testing.T) {
	srv := testServer(t)
	bad := []string{
		"/metrics?hz=abc",
		"/metrics?mode=both",
		"/snapshot?buffers=1",
		"/snapshot?buffers=" + strconv.Itoa(sim.MaxBuffers+1),
		"/snapshot?frames=0",
		"/stream?seed=one",
		"/metrics?bogus=1",
		"/metrics?mod=vsync",   // typo'd name must not serve the default
		"/metrics?fault=bogus", // unknown fault class
		"/metrics?fault=stall&severity=1.5",
		"/metrics?fault=stall&severity=-0.1",
		"/snapshot?fault=stall&severity=NaN",
		"/metrics?fault=stall&severity=abc",
		"/snapshot?severity=0.9", // severity without a fault class
	}
	for _, path := range bad {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (body %.120q), want 400", path, resp.StatusCode, body)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", path, ct)
		}
		var payload struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &payload); err != nil || payload.Error == "" {
			t.Errorf("%s: body %.120q is not a JSON error object", path, body)
		}
	}
	if code, _ := get(t, srv.URL+"/snapshot?hz=120&frames=60"); code != 200 {
		t.Errorf("valid override rejected: %d", code)
	}
}

// TestFaultOverrides: the fault/severity parameters select a deterministic
// injected-fault scenario rather than being silently dropped.
func TestFaultOverrides(t *testing.T) {
	srv := testServer(t)
	code, faulted := get(t, srv.URL+"/metrics?fault=stall&severity=0.9")
	if code != 200 {
		t.Fatalf("faulted scenario: status %d", code)
	}
	code, again := get(t, srv.URL+"/metrics?fault=stall&severity=0.9")
	if code != 200 || faulted != again {
		t.Error("faulted scenario is not deterministic across scrapes")
	}
	_, plain := get(t, srv.URL+"/metrics")
	if plain == faulted {
		t.Error("fault override had no effect on the exposition")
	}
}

// TestStream: the SSE stream carries one columns event, one sample event
// per series row, and a final snapshot event consistent with /snapshot
// for the same parameters.
func TestStream(t *testing.T) {
	srv := testServer(t)
	code, body := get(t, srv.URL+"/stream?frames=60")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if got := strings.Count(body, "event: columns\n"); got != 1 {
		t.Errorf("columns events = %d, want 1", got)
	}
	samples := strings.Count(body, "event: sample\n")
	if samples < 10 {
		t.Fatalf("only %d sample events", samples)
	}
	if got := strings.Count(body, "event: snapshot\n"); got != 1 {
		t.Fatalf("snapshot events = %d, want 1", got)
	}
	// The final snapshot must carry exactly the streamed rows.
	idx := strings.Index(body, "event: snapshot\ndata: ")
	line := body[idx+len("event: snapshot\ndata: "):]
	line = line[:strings.Index(line, "\n")]
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(line), &snap); err != nil {
		t.Fatalf("snapshot payload: %v", err)
	}
	if len(snap.Series.Rows) != samples {
		t.Errorf("snapshot has %d rows, stream carried %d samples", len(snap.Series.Rows), samples)
	}
	// And match the standalone snapshot endpoint for the same scenario.
	_, jsonBody := get(t, srv.URL+"/snapshot?frames=60")
	var direct telemetry.Snapshot
	if err := json.Unmarshal([]byte(jsonBody), &direct); err != nil {
		t.Fatal(err)
	}
	if direct.AtNs != snap.AtNs || len(direct.Series.Rows) != len(snap.Series.Rows) {
		t.Errorf("streamed snapshot (at %d, %d rows) != /snapshot (at %d, %d rows)",
			snap.AtNs, len(snap.Series.Rows), direct.AtNs, len(direct.Series.Rows))
	}
}

// TestAuxEndpoints: healthz, pprof and the index respond; unknown paths 404.
func TestAuxEndpoints(t *testing.T) {
	srv := testServer(t)
	if code, body := get(t, srv.URL+"/healthz"); code != 200 || body != "ok\n" {
		t.Errorf("healthz: %d %q", code, body)
	}
	if code, body := get(t, srv.URL+"/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index: %d", code)
	}
	if code, body := get(t, srv.URL+"/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("index: %d %q", code, body)
	}
	if code, _ := get(t, srv.URL+"/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path: %d, want 404", code)
	}
}
