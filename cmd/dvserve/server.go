package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"net/url"
	"sort"
	"strconv"

	"dvsync"
	"dvsync/internal/sim"
	"dvsync/internal/workload"
)

// params selects one deterministic scenario run. mode is kept as its
// validated spelling so query overrides re-validate through the same path
// as the command line.
type params struct {
	mode     string
	hz       int
	buffers  int
	frames   int
	seed     int64
	fault    string
	severity float64
	faults   *dvsync.FaultConfig // built and validated by newParams
}

// newParams validates one full parameter set. It is the single
// gatekeeper: the command line and every query override pass through it,
// so a parameter combination the simulator would reject is an exit-2 or
// HTTP 400, never a panicking run behind a bound port.
func newParams(mode string, hz, buffers, frames int, seed int64, fault string, severity float64) (params, error) {
	p := params{mode: mode, hz: hz, buffers: buffers, frames: frames,
		seed: seed, fault: fault, severity: severity}
	switch {
	case mode != "vsync" && mode != "dvsync":
		return p, usageError{fmt.Sprintf("unknown mode %q (want vsync or dvsync)", mode)}
	case hz <= 0 || hz > 1000:
		return p, usageError{fmt.Sprintf("invalid refresh rate %d (want 1..1000)", hz)}
	case buffers < 2:
		return p, usageError{fmt.Sprintf("%d buffers cannot double-buffer", buffers)}
	case buffers > sim.MaxBuffers:
		return p, usageError{fmt.Sprintf("%d buffers exceed the bound of %d", buffers, sim.MaxBuffers)}
	case frames <= 0 || frames > 100_000:
		return p, usageError{fmt.Sprintf("invalid frame count %d (want 1..100000)", frames)}
	}
	if fault != "" {
		// The injection window mirrors dvsim's defaults: onset after a
		// 500 ms warm-up, active for the rest of the run. Scenario rejects
		// unknown classes and severities outside [0, 1].
		fc, err := dvsync.FaultScenario(fault, severity,
			dvsync.Time(dvsync.FromMillis(500)), dvsync.Time(dvsync.FromSeconds(3600)), seed)
		if err != nil {
			return p, usageError{err.Error()}
		}
		p.faults = fc
	}
	return p, nil
}

// config builds the simulation configuration for p with reg attached.
func (p params) config(reg *dvsync.TelemetryRegistry) dvsync.Config {
	mode := dvsync.DVSync
	if p.mode == "vsync" {
		mode = dvsync.VSync
	}
	prof := workload.DefaultProfile("dvserve", dvsync.PeriodForHz(p.hz).Milliseconds())
	return dvsync.Config{
		Mode:    mode,
		Panel:   dvsync.PanelConfig{Name: "dvserve", RefreshHz: p.hz},
		Buffers: p.buffers,
		Trace:   prof.Generate(p.frames, p.seed),
		Metrics: reg,
		Faults:  p.faults,
	}
}

// scenarioParams are the query parameters every endpoint accepts.
var scenarioParams = map[string]bool{
	"mode": true, "hz": true, "buffers": true, "frames": true, "seed": true,
	"fault": true, "severity": true,
}

// withQuery applies per-request overrides on top of the defaults.
// Unknown parameters are rejected rather than ignored — a typo like
// ?mod=vsync must not silently serve the default scenario.
func (p params) withQuery(q url.Values) (params, error) {
	var unknown []string
	for name := range q {
		if !scenarioParams[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return p, fmt.Errorf("unknown query parameter %q (want mode, hz, buffers, frames, seed, fault, severity)", unknown[0])
	}
	mode := p.mode
	if v := q.Get("mode"); v != "" {
		mode = v
	}
	hz, err := intParam(q, "hz", p.hz)
	if err != nil {
		return p, err
	}
	buffers, err := intParam(q, "buffers", p.buffers)
	if err != nil {
		return p, err
	}
	frames, err := intParam(q, "frames", p.frames)
	if err != nil {
		return p, err
	}
	seed := p.seed
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return p, fmt.Errorf("query seed=%q: not an integer", v)
		}
		seed = n
	}
	fault := p.fault
	if v, ok := q["fault"]; ok && len(v) > 0 {
		// fault=none (or an explicit empty value) clears the server's
		// default fault class: a server started with -fault can still
		// serve clean runs. Before this distinction, fault= silently
		// inherited the default and a clean run was unreachable.
		if v[0] == "none" || v[0] == "" {
			fault = ""
		} else {
			fault = v[0]
		}
	}
	severity := p.severity
	if v := q.Get("severity"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return p, fmt.Errorf("query severity=%q: not a number", v)
		}
		if fault == "" {
			return p, fmt.Errorf("query severity=%q without a fault class has no effect", v)
		}
		severity = f
	}
	return newParams(mode, hz, buffers, frames, seed, fault, severity)
}

func intParam(q url.Values, name string, def int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("query %s=%q: not an integer", name, v)
	}
	return n, nil
}

// writeError emits a JSON error body. Clients parse a machine-readable
// {"error": ...} object instead of scraping plain-text strings.
func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(struct { //dvlint:ignore errflow write error to the ResponseWriter means the client went away; a handler has nowhere to propagate it
		Error string `json:"error"`
	}{msg})
}

// requestParams resolves the request's scenario or writes a 400.
func requestParams(w http.ResponseWriter, r *http.Request, def params) (params, bool) {
	p, err := def.withQuery(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "dvserve: "+err.Error())
		return params{}, false
	}
	return p, true
}

// newServer builds the handler tree around the default scenario. pprof
// handlers are registered explicitly on this mux — dvserve never touches
// http.DefaultServeMux, so importing net/http/pprof for its side effect
// alone would do nothing here.
func newServer(def params, rn *runner) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		p, ok := requestParams(w, r, def)
		if !ok {
			return
		}
		reg, _, err := rn.serve(p, nil)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "dvserve: "+err.Error())
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w) //dvlint:ignore errflow write error to the ResponseWriter means the client went away; a handler has nowhere to propagate it
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		p, ok := requestParams(w, r, def)
		if !ok {
			return
		}
		reg, _, err := rn.serve(p, nil)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "dvserve: "+err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		reg.WriteJSON(w) //dvlint:ignore errflow write error to the ResponseWriter means the client went away; a handler has nowhere to propagate it
	})
	mux.HandleFunc("/stream", streamHandler(def, rn))
	eng := dvsync.NewFleetEngine()
	rn.eng = eng
	mux.HandleFunc("/fleet", fleetHandler(eng))
	mux.HandleFunc("/anomalies", anomaliesHandler(eng))
	mux.HandleFunc("/anomalies/", anomalyHandler(eng))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		io.WriteString(w, "dvsync telemetry server\n\n"+
			"GET  /metrics    Prometheus exposition of one scenario run\n"+
			"GET  /snapshot   JSON snapshot\n"+
			"GET  /stream     SSE live sample stream\n"+
			"POST /fleet      SSE census of a JSON population spec\n"+
			"GET  /anomalies  ids of captured flight-recorder anomaly dumps\n"+
			"GET  /anomalies/{id}  one sealed dump (decode with dvtrace -why)\n"+
			"GET  /healthz    liveness probe\n"+
			"GET  /debug/pprof/  profiling\n\n"+
			"query overrides: mode, hz, buffers, frames, seed, fault, severity\n"+
			"(fault=none clears the server's default fault class)\n")
	})
	return mux
}

// errorEvent is the payload of a terminal SSE error event, matching the
// JSON body writeError sends before streaming starts.
type errorEvent struct {
	Error string `json:"error"`
}

// streamHandler serves one scenario run as SSE. Event order per stream:
// one `columns` event naming the series columns, one `sample` event per
// sampled row in virtual-time order, a final `snapshot` event carrying
// the full export, then one `anomaly` event per dump a flight recorder on
// the run would take, naming the ids GET /anomalies/{id} serves. A cached
// scenario's rows are the stored rows of its one finished run — the rows
// the run sampled, so the bytes are those of a live stream of it. With
// -checkpoint-dir the run executes inside the request and each row is
// written as it is sampled; when crash recovery resumes a run it replays
// the run from the start, so the stream carries every row and is
// byte-identical to an uninterrupted run's (a client of the crashed
// process lost its connection with it).
// Each stream opens with a `retry:` reconnect hint, flushed at once, and
// a host-time keepalive ticker flushes a `: keepalive` comment whenever
// the request runs for longer than keepaliveInterval, so proxies and idle
// timeouts never cut a slow stream. Rows are not flushed one by one: they
// ride the response buffer, and the rest goes out when the handler
// returns.
func streamHandler(def params, rn *runner) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		p, ok := requestParams(w, r, def)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		sw := newSSEWriter(w)
		sw.retryHint(retryHintMs)
		stop := sw.startKeepalive(keepaliveInterval)
		defer stop()
		sentColumns := false
		reg, ids, err := rn.serve(p, func(reg *dvsync.TelemetryRegistry, row dvsync.TelemetrySample) {
			if !sentColumns {
				sw.event("columns", reg.Series().Columns)
				sentColumns = true
			}
			sw.sample(row)
		})
		if err != nil {
			// The stream is already flowing (the retry hint opened it): the
			// status line is gone, so a terminal error event is the only way
			// to tell the client the run died. Swallowing the error here
			// left clients with a silently truncated stream.
			sw.event("error", errorEvent{Error: "dvserve: " + err.Error()})
			return
		}
		sw.event("snapshot", reg.Snapshot())
		for _, id := range ids {
			sw.event("anomaly", anomalyEvent{ID: id})
		}
	}
}
