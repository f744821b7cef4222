package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"

	"dvsync"
)

// scenarioPaths are the endpoints a cached scenario entry serves.
var scenarioPaths = []string{"/metrics", "/snapshot", "/stream"}

// scenarioBodies fetches every scenario endpoint for query.
func scenarioBodies(t *testing.T, base, query string) map[string]string {
	t.Helper()
	bodies := map[string]string{}
	for _, path := range scenarioPaths {
		code, body := get(t, base+path+query)
		if code != 200 {
			t.Fatalf("%s%s: status %d: %.300s", path, query, code, body)
		}
		bodies[path] = body
	}
	return bodies
}

// liveBodies encodes query's /metrics, /snapshot and /stream bodies from
// a fresh dvsync.Run, bypassing the server's cache: the stream's rows go
// through an sseWriter as the run samples them (OnSample), which is how a
// live stream of the run encodes them. The stream ends at its snapshot:
// the anomaly events name dump ids only the server derives.
func liveBodies(t *testing.T, query string) map[string]string {
	t.Helper()
	q, err := url.ParseQuery(strings.TrimPrefix(query, "?"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := testDefaults(t).withQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	reg := dvsync.NewTelemetryRegistry()
	stream := httptest.NewRecorder()
	sw := newSSEWriter(stream)
	sw.retryHint(retryHintMs)
	sentColumns := false
	reg.OnSample(func(row dvsync.TelemetrySample) {
		if !sentColumns {
			sw.event("columns", reg.Series().Columns)
			sentColumns = true
		}
		sw.sample(row)
	})
	dvsync.Run(p.config(reg))
	sw.event("snapshot", reg.Snapshot())
	var prom, snap bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&snap); err != nil {
		t.Fatal(err)
	}
	return map[string]string{"/metrics": prom.String(), "/snapshot": snap.String(), "/stream": stream.Body.String()}
}

// TestScenarioRunsOnce: repeated /metrics, /snapshot and /stream requests
// on one key run one simulation, and every body is byte-identical across
// the miss, the hits and a live encoding of a fresh run. Past the cache
// bound the key runs once more and serves the same bytes.
func TestScenarioRunsOnce(t *testing.T) {
	rn := &runner{}
	srv := testServerWith(t, rn)
	var faulted map[string]string
	for _, query := range []string{"?frames=60", faultedStreamQuery} {
		before := rn.runs.Load()
		miss := scenarioBodies(t, srv.URL, query)
		for hit := 0; hit < 2; hit++ {
			for path, body := range scenarioBodies(t, srv.URL, query) {
				if body != miss[path] {
					t.Errorf("%s%s: hit %d differs from the miss", path, query, hit)
				}
			}
		}
		if got := rn.runs.Load() - before; got != 1 {
			t.Errorf("%s: %d simulations for 9 requests, want 1", query, got)
		}

		ids := announcedIDs(miss["/stream"])
		if query == faultedStreamQuery {
			faulted = miss
			if len(ids) == 0 {
				t.Fatalf("%s: the faulted stream announced no anomalies", query)
			}
		} else if len(ids) != 0 {
			t.Fatalf("%s: the clean stream announced %v", query, ids)
		}
		for path, want := range liveBodies(t, query) {
			got := miss[path]
			if path == "/stream" {
				got, _, _ = strings.Cut(got, "event: anomaly\n")
			}
			if got != want {
				t.Errorf("%s%s: the cached body differs from a live encoding of a fresh run", path, query)
			}
		}
	}

	for i := 0; i < runnerCacheSize; i++ {
		if code, _ := get(t, fmt.Sprintf("%s/metrics?frames=60&seed=%d", srv.URL, 100+i)); code != 200 {
			t.Fatalf("filler scenario %d: status %d", i, code)
		}
	}
	before := rn.runs.Load()
	for path, body := range scenarioBodies(t, srv.URL, faultedStreamQuery) {
		if body != faulted[path] {
			t.Errorf("%s%s: the body after eviction differs from the first", path, faultedStreamQuery)
		}
	}
	if got := rn.runs.Load() - before; got != 1 {
		t.Errorf("evicted key: %d simulations for 3 requests, want 1", got)
	}
}

// flushRecorder is a ResponseWriter that records the body length at each
// flush.
type flushRecorder struct {
	*httptest.ResponseRecorder
	at []int
}

func (f *flushRecorder) Flush() {
	f.at = append(f.at, f.Body.Len())
	f.ResponseRecorder.Flush()
}

// serveRecorded drives the handler tree for one request.
func serveRecorded(t *testing.T, h http.Handler, req *http.Request) *flushRecorder {
	t.Helper()
	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("%s %s: status %d: %.300s", req.Method, req.URL, rec.Code, rec.Body)
	}
	return rec
}

// TestStreamFlushPolicy: a /stream flushes its retry hint at once and
// then only where a client can act, never per row: a 60-frame and a
// 240-frame stream flush equally often.
func TestStreamFlushPolicy(t *testing.T) {
	h := testServer(t).Config.Handler
	short := serveRecorded(t, h, httptest.NewRequest(http.MethodGet, "/stream?frames=60", nil))
	long := serveRecorded(t, h, httptest.NewRequest(http.MethodGet, "/stream?frames=240", nil))
	rows60 := strings.Count(short.Body.String(), "event: sample\n")
	rows240 := strings.Count(long.Body.String(), "event: sample\n")
	if rows240 <= rows60 {
		t.Fatalf("the 240-frame stream carries %d rows, the 60-frame one %d", rows240, rows60)
	}
	if len(short.at) != len(long.at) {
		t.Errorf("%d rows flushed %d times, %d rows %d times: flushes follow the row count",
			rows60, len(short.at), rows240, len(long.at))
	}
	hint := len(fmt.Sprintf("retry: %d\n\n", retryHintMs))
	if len(long.at) == 0 || long.at[0] != hint {
		t.Errorf("flushes at body lengths %v: the retry hint (%d bytes) is not flushed first", long.at, hint)
	}
}

// TestFleetFlushesPerCohort: a /fleet census flushes after each cohort
// event and its anomaly events, before the next event starts, so a client
// can fetch a cohort's dumps mid-census.
func TestFleetFlushesPerCohort(t *testing.T) {
	spec := `{"frames":400,"cohorts":[` +
		`{"name":"stalled","device":"pixel5","hz":[60],"modes":["dvsync"],"fault":"stall","severity":0.8},` +
		`{"name":"clean","device":"pixel5","hz":[60],"modes":["dvsync"]}]}`
	rec := serveRecorded(t, testServer(t).Config.Handler,
		httptest.NewRequest(http.MethodPost, "/fleet", strings.NewReader(spec)))
	body := rec.Body.String()
	if len(announcedIDs(body)) == 0 {
		t.Fatalf("the stalled cohort announced no anomalies:\n%.300s", body)
	}
	var events []int // where each cohort event starts, then the fleet event
	for off := 0; ; {
		i := strings.Index(body[off:], "event: cohort\n")
		if i < 0 {
			break
		}
		events = append(events, off+i)
		off += i + 1
	}
	events = append(events, strings.Index(body, "event: fleet\n"))
	if len(events) != 3 || events[2] < events[1] {
		t.Fatalf("want two cohort events before one fleet event, got offsets %v", events)
	}
	for i := range 2 {
		if !slices.Contains(rec.at, events[i+1]) {
			t.Errorf("cohort %d (bytes %d–%d) is not flushed before the next event; flushes at %v",
				i, events[i], events[i+1], rec.at)
		}
	}
}
