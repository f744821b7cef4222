package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"

	"dvsync"
)

// maxFleetSpecBytes bounds the census spec body; a spec is declarative
// and small, never bulk data.
const maxFleetSpecBytes = 1 << 20

// errorEvent is the payload of a terminal SSE error event, matching the
// JSON body writeError sends before streaming starts.
type errorEvent struct {
	Error string `json:"error"`
}

// fleetHandler serves POST /fleet: a JSON census spec in, an SSE stream
// out — one `cohort` event per cohort as its aggregate completes, then a
// terminal `fleet` event with the full census result. The engine is
// shared across requests, so cells repeated between censuses are served
// from its content-addressed cache.
//
// The spec is fully validated before the stream starts: a malformed spec
// is a plain HTTP 400 with a JSON error body, never a half-open stream.
func fleetHandler(eng *dvsync.FleetEngine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "dvserve: /fleet takes a POST with a JSON census spec")
			return
		}
		if len(r.URL.Query()) > 0 {
			writeError(w, http.StatusBadRequest, "dvserve: /fleet takes its spec in the request body, not query parameters")
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, maxFleetSpecBytes+1))
		if err != nil {
			writeError(w, http.StatusBadRequest, "dvserve: reading spec: "+err.Error())
			return
		}
		if len(body) > maxFleetSpecBytes {
			writeError(w, http.StatusBadRequest, "dvserve: census spec exceeds 1 MiB")
			return
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields() // a typoed field must not silently run the default census
		var spec dvsync.FleetSpec
		if err := dec.Decode(&spec); err != nil {
			writeError(w, http.StatusBadRequest, "dvserve: decoding spec: "+err.Error())
			return
		}
		if dec.More() {
			writeError(w, http.StatusBadRequest, "dvserve: trailing data after census spec")
			return
		}
		if err := spec.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, "dvserve: "+err.Error())
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		sw := newSSEWriter(w)
		sw.retryHint(retryHintMs)
		stop := sw.startKeepalive(keepaliveInterval)
		defer stop()
		res, err := eng.Census(spec, func(c *dvsync.FleetCohortResult) {
			sw.event("cohort", c)
			// Announce each anomalous cell's dumps as the cohort lands, and
			// flush, so a client can fetch GET /anomalies/{id} mid-census.
			for _, id := range c.AnomalyDumps {
				sw.event("anomaly", anomalyEvent{ID: id})
			}
			sw.flush()
		})
		if err != nil {
			// Validation passed, so this is a mid-census failure: the
			// stream is the only channel left to report it on.
			sw.event("error", errorEvent{Error: "dvserve: " + err.Error()})
			return
		}
		sw.event("fleet", res)
	}
}
