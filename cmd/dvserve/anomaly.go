// SSE plumbing and the anomaly endpoints. Streaming handlers write
// through sseWriter so the host-time keepalive ticker can interleave
// comments without tearing events; GET /anomalies serves the fleet
// engine's dump index, which scenario runs and censuses both fill.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"dvsync"
)

// keepaliveInterval is the cadence of `: keepalive` SSE comments. A
// package variable so tests can shrink it. Host time, deliberately: the
// comments exist to cover wall-clock gaps while the virtual clock is
// busy computing, so they cannot ride the virtual clock themselves.
// cmd/* sits outside the NoWallClock lint surface for exactly this kind
// of serving-shell concern (see internal/lint/nowallclock.go).
var keepaliveInterval = 15 * time.Second

// retryHintMs is the reconnect delay suggested to SSE clients at stream
// open.
const retryHintMs = 2000

// sseWriter serialises SSE writes between a handler goroutine and its
// keepalive ticker. Every frame (event, comment, hint) is written under
// one mutex hold, so frames never interleave mid-line. Events are not
// flushed one by one: the retry hint and keepalive comments flush, and
// handlers call flush where a client can act on what it has so far.
type sseWriter struct {
	mu  sync.Mutex
	w   io.Writer
	fl  http.Flusher // nil when the ResponseWriter cannot flush
	buf []byte       // sample frame encoding, reused
}

func newSSEWriter(w http.ResponseWriter) *sseWriter {
	sw := &sseWriter{w: w}
	if fl, ok := w.(http.Flusher); ok {
		sw.fl = fl
	}
	return sw
}

// event emits one SSE event with a single-line JSON payload.
func (s *sseWriter) event(event string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", event, data)
}

// sample emits one `sample` event: the bytes event("sample",
// TelemetryRow{...}) writes, encoded by append into the writer's reused
// buffer, since rows are most of a stream. Non-finite values encode as
// null, so a NaN column never drops its row.
func (s *sseWriter) sample(row dvsync.TelemetrySample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := append(s.buf[:0], "event: sample\ndata: "...)
	b = dvsync.TelemetryRow{AtNs: int64(row.At), Values: row.Values}.AppendJSON(b)
	s.buf = append(b, "\n\n"...)
	s.w.Write(s.buf)
}

// flush sends every frame written so far to the client.
func (s *sseWriter) flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fl != nil {
		s.fl.Flush()
	}
}

// comment emits one SSE comment line (ignored by clients, but it keeps
// the connection warm through proxies and idle timeouts) and flushes it.
func (s *sseWriter) comment(text string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(s.w, ": %s\n\n", text)
	if s.fl != nil {
		s.fl.Flush()
	}
}

// retryHint emits the SSE `retry:` reconnect-delay hint and flushes it,
// so a stream opens at once.
func (s *sseWriter) retryHint(ms int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(s.w, "retry: %d\n\n", ms)
	if s.fl != nil {
		s.fl.Flush()
	}
}

// startKeepalive emits `: keepalive` comments on a host-time ticker
// until the returned stop function is called. stop blocks until the
// ticker goroutine has exited, so no write can land on the
// ResponseWriter after the handler returns.
func (s *sseWriter) startKeepalive(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	ticker := time.NewTicker(interval)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				s.comment("keepalive")
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// anomalyEvent is the payload of one `anomaly` SSE event.
type anomalyEvent struct {
	ID string `json:"id"`
}

// anomalyList is the GET /anomalies body.
type anomalyList struct {
	Anomalies []string `json:"anomalies"`
}

// anomaliesHandler serves GET /anomalies: every dump id the engine
// indexes — from scenario runs and censuses alike — in first-seen order.
func anomaliesHandler(eng *dvsync.FleetEngine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "dvserve: /anomalies is read-only")
			return
		}
		list := anomalyList{Anomalies: eng.AnomalyIDs()}
		if list.Anomalies == nil {
			list.Anomalies = []string{} // an empty index is [], not null
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(list) //dvlint:ignore errflow write error to the ResponseWriter means the client went away; a handler has nowhere to propagate it
	}
}

// anomalyHandler serves GET /anomalies/{id}: the sealed envelope bytes
// of one dump, decodable with `dvtrace -why`. The engine replays the
// producing run to seal the dump, so every fetch returns the same bytes.
func anomalyHandler(eng *dvsync.FleetEngine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "dvserve: /anomalies is read-only")
			return
		}
		id := strings.TrimPrefix(r.URL.Path, "/anomalies/")
		if id == "" || strings.Contains(id, "/") {
			writeError(w, http.StatusNotFound, "dvserve: want /anomalies/{id}")
			return
		}
		data, ok := eng.AnomalyDump(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Sprintf("dvserve: unknown anomaly dump %q", id))
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(data) //dvlint:ignore errflow write error to the ResponseWriter means the client went away; a handler has nowhere to propagate it
	}
}
