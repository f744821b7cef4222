package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dvsync"
)

// TestSSEWriterKeepaliveNoTearing is the slow-consumer regression: a
// keepalive ticker racing a handler writing events must never interleave
// mid-frame. The writer runs under -race with a fast ticker while events
// stream concurrently; afterwards every frame in the output must be a
// complete retry hint, comment, or event/data pair.
func TestSSEWriterKeepaliveNoTearing(t *testing.T) {
	var buf bytes.Buffer
	sw := &sseWriter{w: &buf}
	sw.retryHint(retryHintMs)
	stop := sw.startKeepalive(100 * time.Microsecond)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			sw.event("sample", dvsync.TelemetryRow{AtNs: int64(i), Values: []float64{float64(i)}})
			time.Sleep(50 * time.Microsecond)
		}
	}()
	wg.Wait()
	stop()
	out := buf.String()
	if !strings.HasPrefix(out, fmt.Sprintf("retry: %d\n\n", retryHintMs)) {
		t.Errorf("stream does not open with the retry hint: %.60q", out)
	}
	if !strings.Contains(out, ": keepalive\n\n") {
		t.Error("no keepalive comment in 10ms of streaming at a 100µs ticker")
	}
	frame := regexp.MustCompile(`\A(retry: \d+|: keepalive|event: sample\ndata: \{[^\n]*\})\z`)
	for i, f := range strings.Split(strings.TrimSuffix(out, "\n\n"), "\n\n") {
		if !frame.MatchString(f) {
			t.Fatalf("frame %d is torn: %q", i, f)
		}
	}
	// stop is idempotent enough for deferred use: no writes land after it.
	n := buf.Len()
	time.Sleep(2 * time.Millisecond)
	if buf.Len() != n {
		t.Error("keepalive wrote after stop returned")
	}
}

// faultedStreamURL is a scenario whose run captures anomaly dumps: the
// stall class janks hard enough to trip jank-burst and fault-onset
// triggers.
const faultedStreamQuery = "?fault=stall&severity=0.8&frames=400"

// TestStreamAnnouncesAnomalies: a faulted /stream run ends with anomaly
// events naming dump ids, the ids appear in GET /anomalies, and each
// resolves to a sealed envelope that decodes as a flight dump.
func TestStreamAnnouncesAnomalies(t *testing.T) {
	srv := testServer(t)
	code, body := get(t, srv.URL+"/stream"+faultedStreamQuery)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if !strings.HasPrefix(body, "retry: ") {
		t.Errorf("stream does not open with a retry hint: %.60q", body)
	}
	re := regexp.MustCompile(`event: anomaly\ndata: (\{[^\n]*\})`)
	matches := re.FindAllStringSubmatch(body, -1)
	if len(matches) == 0 {
		t.Fatalf("faulted stream announced no anomalies:\n%.300s", body[max(0, len(body)-300):])
	}
	var ids []string
	for _, m := range matches {
		var ev struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal([]byte(m[1]), &ev); err != nil || ev.ID == "" {
			t.Fatalf("anomaly payload %q: %v", m[1], err)
		}
		ids = append(ids, ev.ID)
	}

	code, listBody := get(t, srv.URL+"/anomalies")
	if code != 200 {
		t.Fatalf("/anomalies status %d", code)
	}
	var list struct {
		Anomalies []string `json:"anomalies"`
	}
	if err := json.Unmarshal([]byte(listBody), &list); err != nil {
		t.Fatalf("/anomalies body %q: %v", listBody, err)
	}
	indexed := map[string]bool{}
	for _, id := range list.Anomalies {
		indexed[id] = true
	}
	for _, id := range ids {
		if !indexed[id] {
			t.Errorf("announced id %q missing from /anomalies (%v)", id, list.Anomalies)
		}
		code, dump := get(t, srv.URL+"/anomalies/"+id)
		if code != 200 {
			t.Fatalf("/anomalies/%s status %d", id, code)
		}
		d, _, err := dvsync.DecodeAnomalyDump(strings.NewReader(dump), "")
		if err != nil {
			t.Fatalf("dump %s does not decode: %v", id, err)
		}
		if len(d.Events) == 0 {
			t.Errorf("dump %s carries no events", id)
		}
	}

	// A repeat of the identical scenario announces the same ids and the
	// dump bytes are stable.
	_, body2 := get(t, srv.URL+"/stream"+faultedStreamQuery)
	if got := re.FindAllStringSubmatch(body2, -1); len(got) != len(matches) {
		t.Errorf("repeat run announced %d anomalies, first run %d", len(got), len(matches))
	}
	_, dumpA := get(t, srv.URL+"/anomalies/"+ids[0])
	_, dumpB := get(t, srv.URL+"/anomalies/"+ids[0])
	if dumpA != dumpB {
		t.Error("dump bytes changed between fetches")
	}
}

// TestAnomalyEndpointRejections: the anomaly surface is read-only and
// unknown ids are JSON 404s.
func TestAnomalyEndpointRejections(t *testing.T) {
	srv := testServer(t)
	if code, _ := get(t, srv.URL+"/anomalies"); code != 200 {
		t.Errorf("empty /anomalies status %d, want 200", code)
	}
	_, body := get(t, srv.URL+"/anomalies")
	if body != "{\"anomalies\":[]}\n" {
		t.Errorf("empty list body %q, want explicit empty array", body)
	}
	if code, _ := get(t, srv.URL+"/anomalies/nope"); code != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", code)
	}
	if code, _ := get(t, srv.URL+"/anomalies/a/b"); code != http.StatusNotFound {
		t.Errorf("nested path: status %d, want 404", code)
	}
	resp, err := http.Post(srv.URL+"/anomalies", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /anomalies: status %d, want 405", resp.StatusCode)
	}
}

// TestFleetAnomalyEvents: a faulted census streams anomaly events after
// each anomalous cohort, and the engine-indexed dumps are served by id.
func TestFleetAnomalyEvents(t *testing.T) {
	srv := testServer(t)
	spec := `{"name":"anomaly","frames":400,"cohorts":[` +
		`{"name":"stalled","device":"pixel5","hz":[60],"modes":["dvsync"],"fault":"stall","severity":0.8}]}`
	code, body := postFleet(t, srv.URL, spec)
	if code != 200 {
		t.Fatalf("status %d: %.300s", code, body)
	}
	if !strings.HasPrefix(body, "retry: ") {
		t.Errorf("fleet stream does not open with a retry hint: %.60q", body)
	}
	re := regexp.MustCompile(`event: anomaly\ndata: \{"id":"([^"]+)"\}`)
	matches := re.FindAllStringSubmatch(body, -1)
	if len(matches) == 0 {
		t.Fatalf("faulted census announced no anomalies:\n%.300s", body)
	}
	// Anomaly events ride between the cohort and terminal fleet events.
	if ci, fi := strings.Index(body, "event: cohort\n"), strings.Index(body, "event: anomaly\n"); fi < ci {
		t.Error("anomaly events precede their cohort event")
	}
	for _, m := range matches {
		code, dump := get(t, srv.URL+"/anomalies/"+m[1])
		if code != 200 {
			t.Fatalf("/anomalies/%s status %d", m[1], code)
		}
		if _, _, err := dvsync.DecodeAnomalyDump(strings.NewReader(dump), ""); err != nil {
			t.Errorf("fleet dump %s does not decode: %v", m[1], err)
		}
	}
}

// anomalyEventRE matches one `anomaly` SSE event and captures its id.
var anomalyEventRE = regexp.MustCompile(`event: anomaly\ndata: \{"id":"([^"]+)"\}`)

// announcedIDs lists the dump ids an SSE body announces, in order.
func announcedIDs(body string) []string {
	var ids []string
	for _, m := range anomalyEventRE.FindAllStringSubmatch(body, -1) {
		ids = append(ids, m[1])
	}
	return ids
}

// listAnomalies returns the GET /anomalies id list.
func listAnomalies(t *testing.T, base string) []string {
	t.Helper()
	code, body := get(t, base+"/anomalies")
	if code != 200 {
		t.Fatalf("/anomalies status %d: %s", code, body)
	}
	var list struct {
		Anomalies []string `json:"anomalies"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatalf("/anomalies body %q: %v", body, err)
	}
	return list.Anomalies
}

// scenarioDumpPins pins the sha256 of every dump the faulted stream
// scenario announces. A dump is a pure function of the scenario, so any
// change to how or when the server seals it must leave these bytes
// untouched.
var scenarioDumpPins = map[string]string{
	"6235729c490e-00-fault-onset": "8f1ce94222c41fb13d6ac5578cc0ea48125356b7eb76daa6ec64ebc68c353e12",
	"6235729c490e-01-jank-burst":  "57064a63ee9559addc74015d6d79b6ead1736bef3d6e5a8dc9c88fd776a64d65",
	"6235729c490e-02-jank-burst":  "68650819ed6b340eb5807ffd3f0a9d2fa5141b19b03942dae2f32997379e72a2",
	"6235729c490e-03-jank-burst":  "bf4437a4be078df6b1bb6ad405770fa3517d46e346f16bf03d69143912e0e8f7",
	"6235729c490e-04-jank-burst":  "7cd862832986a78f786196a02bc2ea673af6ca7addc23d01df45f24ada72453c",
	"6235729c490e-05-jank-burst":  "5bb4adeabdaf0047fe0d3012bd64dbadbe99e8f243e55933b4dc3ca344424766",
	"6235729c490e-06-jank-burst":  "7ffbf33661bdf2dc2587be7d6841f80beecfca2d69c0813a88f6d4b524e49741",
	"6235729c490e-07-jank-burst":  "ee9421c9476e26e246190ac2fc84be62f8cbfa9a478013386b398b9ac4aa4c5c",
	"6235729c490e-08-jank-burst":  "38c2c2c0fda0d2de38124652abb017ec68e77df56ff2679791abd0577d69f7c3",
	"6235729c490e-09-jank-burst":  "dc878ce86f2f6c59355e8dbb21baf4be453d218723530bc1c944d62e7488fc37",
}

// TestScenarioDumpBytesPinned: every dump of the faulted stream scenario
// hashes to its pin when fetched after the scenario's cached Runner is
// gone, so the bytes come from a replay of the run alone.
func TestScenarioDumpBytesPinned(t *testing.T) {
	rn := &runner{}
	srv := testServerWith(t, rn)
	_, body := get(t, srv.URL+"/stream"+faultedStreamQuery)
	ids := announcedIDs(body)
	if len(ids) != len(scenarioDumpPins) {
		t.Errorf("stream announced %d dumps, %d are pinned: %v", len(ids), len(scenarioDumpPins), ids)
	}
	p, err := newParams("dvsync", 60, 4, 400, 1, "stall", 0.8)
	if err != nil {
		t.Fatal(err)
	}
	// runnerCacheSize other scenarios evict the faulted scenario's entry.
	for i := 0; i < runnerCacheSize; i++ {
		if code, _ := get(t, fmt.Sprintf("%s/metrics?frames=60&seed=%d", srv.URL, 100+i)); code != 200 {
			t.Fatalf("filler scenario %d: status %d", i, code)
		}
	}
	rn.cmu.Lock()
	_, cached := rn.cache[p.key()]
	rn.cmu.Unlock()
	if cached {
		t.Fatal("the faulted scenario's Runner is still cached")
	}
	for _, id := range ids {
		code, dump := get(t, srv.URL+"/anomalies/"+id)
		if code != 200 {
			t.Fatalf("/anomalies/%s status %d", id, code)
		}
		sum := sha256.Sum256([]byte(dump))
		if got := hex.EncodeToString(sum[:]); got != scenarioDumpPins[id] {
			t.Errorf("dump %q: sha256 %s, pinned %q", id, got, scenarioDumpPins[id])
		}
	}
}

// TestAnomaliesSingleIndex: scenario runs and censuses fill one dump
// index. After a faulted /stream, a faulted census, the same /stream
// again and then a second faulted scenario, GET /anomalies lists every
// announced id exactly once, in the order the ids were first announced —
// the census's ids before the second scenario's — and every id fetches.
func TestAnomaliesSingleIndex(t *testing.T) {
	srv := testServer(t)
	_, s1 := get(t, srv.URL+"/stream"+faultedStreamQuery)
	streamIDs := announcedIDs(s1)
	spec := `{"name":"anomaly","frames":400,"cohorts":[` +
		`{"name":"stalled","device":"pixel5","hz":[60],"modes":["dvsync"],"fault":"stall","severity":0.8}]}`
	code, f := postFleet(t, srv.URL, spec)
	if code != 200 {
		t.Fatalf("/fleet status %d: %.300s", code, f)
	}
	fleetIDs := announcedIDs(f)
	_, s2 := get(t, srv.URL+"/stream"+faultedStreamQuery)
	_, s3 := get(t, srv.URL+"/stream"+faultedStreamQuery+"&seed=2")
	laterIDs := announcedIDs(s3)
	if len(streamIDs) == 0 || len(fleetIDs) == 0 || len(laterIDs) == 0 {
		t.Fatalf("streams announced %d and %d dumps, census %d; all must announce some",
			len(streamIDs), len(laterIDs), len(fleetIDs))
	}
	if again := announcedIDs(s2); !slices.Equal(again, streamIDs) {
		t.Errorf("repeat stream announced %v, first run %v", again, streamIDs)
	}

	var want []string
	for _, id := range slices.Concat(streamIDs, fleetIDs, streamIDs, laterIDs) {
		if !slices.Contains(want, id) {
			want = append(want, id)
		}
	}
	got := listAnomalies(t, srv.URL)
	if !slices.Equal(got, want) {
		t.Errorf("/anomalies lists\n%v\nwant first-seen order\n%v", got, want)
	}
	for _, id := range got {
		code, dump := get(t, srv.URL+"/anomalies/"+id)
		if code != 200 {
			t.Fatalf("/anomalies/%s status %d", id, code)
		}
		if _, _, err := dvsync.DecodeAnomalyDump(strings.NewReader(dump), ""); err != nil {
			t.Errorf("dump %s does not decode: %v", id, err)
		}
	}
}
