package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dvsync/internal/display"
	"dvsync/internal/fleet"
	"dvsync/internal/flight"
	"dvsync/internal/sim"
	"dvsync/internal/simtime"
	"dvsync/internal/telemetry"
	"dvsync/internal/workload"
)

// The serve-mix request script: every pass has exactly this mix, in a
// seeded order. The shares follow dvserve's documented client patterns
// (README quickstarts, the CI smoke, census drivers); they are not fitted
// to real traffic.
const (
	passRequests     = 1000
	passMetrics      = 800 // GET /metrics over the hot key set, Zipf-weighted...
	passMetricsFresh = 80  // ...plus fresh seeds: Runner-cache misses and evictions
	passStream       = 80  // GET /stream on the hottest keys
	passFleet        = 90  // POST /fleet re-posting the warm specs...
	passFleetFresh   = 14  // ...plus fresh-seed specs: cold censuses holding the engine mutex
	passAnomalies    = 30  // GET /anomalies, half of them /anomalies/{id}

	servePasses    = 3  // per server lifetime: one cold pass, then warm ones
	hotScenarios   = 12 // /metrics key set; dvserve's Runner cache holds 16
	streamScenario = 4  // /stream draws from the hottest keys only
	warmSpecs      = 3
	serveFrames    = 240 // dvserve's default run length
	runnerCacheCap = 16  // dvserve's runnerCacheSize
)

// scenario is one dvserve query-parameter set.
type scenario struct {
	mode    string
	hz      int
	buffers int
	seed    int64
}

func (s scenario) query() string {
	return fmt.Sprintf("mode=%s&hz=%d&buffers=%d&frames=%d&seed=%d", s.mode, s.hz, s.buffers, serveFrames, s.seed)
}

// config is the simulation dvserve runs for the scenario (cmd/dvserve
// params.config), built here from the same public packages.
func (s scenario) config(reg *telemetry.Registry) sim.Config {
	mode := sim.ModeDVSync
	if s.mode == "vsync" {
		mode = sim.ModeVSync
	}
	prof := workload.DefaultProfile("dvserve", simtime.PeriodForHz(s.hz).Milliseconds())
	return sim.Config{
		Mode:    mode,
		Panel:   display.Config{Name: "dvserve", RefreshHz: s.hz},
		Buffers: s.buffers,
		Trace:   prof.Generate(serveFrames, s.seed),
		Metrics: reg,
	}
}

// hotSet is the seed's skewed key set, hottest first.
func hotSet(seed int64) []scenario {
	var out []scenario
	for _, b := range []int{4, 3} {
		for _, hz := range []int{60, 120, 90} {
			for _, m := range []string{"dvsync", "vsync"} {
				out = append(out, scenario{mode: m, hz: hz, buffers: b, seed: 1 + seed*100})
			}
		}
	}
	return out[:hotScenarios]
}

// smallSpec is the census clients post: a clean cohort and a stalled
// one, six cells.
func smallSpec(name string, seed int64) fleet.Spec {
	sev := 0.6
	return fleet.Spec{Name: name, Seed: seed, Frames: serveFrames, Replicas: 2, Cohorts: []fleet.Cohort{
		{Name: "pixel5", Device: "pixel5", Workload: "moderate"},
		{Name: "mate40-stall", Device: "mate40", Hz: []int{90}, Modes: []string{"dvsync"},
			Workload: "heavy-tail", Fault: "stall", Severity: &sev},
	}}
}

// request is one scripted client request.
type request struct {
	kind string // metrics, stream, fleet or anomalies
	path string
	scen scenario // metrics and stream
	spec int      // fleet: index into the script's spec table
	body []byte   // fleet: the spec JSON
}

// script is the seeded request sequence of one server lifetime.
type script struct {
	specs  []fleet.Spec // warm specs first, then fresh ones
	passes [][]request
}

// zipfSpread returns n indices in [0, k) whose counts follow the weights
// 1/(i+1): the inverse CDF at n evenly spaced points, so every pass draws
// the same key mix.
func zipfSpread(n, k int) []int {
	cdf := make([]float64, k)
	total := 0.0
	for i := range cdf {
		total += 1 / float64(i+1)
		cdf[i] = total
	}
	out := make([]int, n)
	for j := range out {
		u := (float64(j) + 0.5) / float64(n) * total
		for out[j] < k-1 && cdf[out[j]] < u {
			out[j]++
		}
	}
	return out
}

// newScript generates lifetime life's requests. dumpIDs are anomaly-dump
// ids the warm specs are known to produce.
func newScript(seed int64, life int, dumpIDs []string) *script {
	r := rand.New(rand.NewPCG(uint64(seed), uint64(life)))
	hot := hotSet(seed)
	sc := &script{}
	for k := 0; k < warmSpecs; k++ {
		sc.specs = append(sc.specs, smallSpec(fmt.Sprintf("warm%d", k), 500+seed*100+int64(k)))
	}
	fresh := int64(0)
	nextFresh := func() int64 {
		fresh++
		return 1_000_000 + seed*1_000_000 + int64(life)*10_000 + fresh
	}
	metrics := func(s scenario) request {
		return request{kind: "metrics", path: "/metrics?" + s.query(), scen: s}
	}
	for p := 0; p < servePasses; p++ {
		var reqs []request
		for _, i := range zipfSpread(passMetrics-passMetricsFresh, len(hot)) {
			reqs = append(reqs, metrics(hot[i]))
		}
		for j := 0; j < passMetricsFresh; j++ {
			reqs = append(reqs, metrics(scenario{mode: "dvsync", hz: 60, buffers: 4, seed: nextFresh()}))
		}
		for _, i := range zipfSpread(passStream, streamScenario) {
			reqs = append(reqs, request{kind: "stream", path: "/stream?" + hot[i].query(), scen: hot[i]})
		}
		for j := 0; j < passFleet; j++ {
			k := j % warmSpecs
			if j < passFleetFresh {
				k = len(sc.specs)
				sc.specs = append(sc.specs, smallSpec(fmt.Sprintf("fresh%d", fresh), nextFresh()))
			}
			body, _ := json.Marshal(sc.specs[k])
			reqs = append(reqs, request{kind: "fleet", path: "/fleet", spec: k, body: body})
		}
		for j := 0; j < passAnomalies; j++ {
			q := request{kind: "anomalies", path: "/anomalies"}
			if j%2 == 1 && len(dumpIDs) > 0 {
				q.path += "/" + dumpIDs[r.IntN(len(dumpIDs))]
			}
			reqs = append(reqs, q)
		}
		r.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
		sc.passes = append(sc.passes, reqs)
	}
	return sc
}

// server is one running dvserve process.
type server struct {
	cmd   *exec.Cmd
	base  string
	setup time.Duration
}

// startServer launches dvserve on an ephemeral loopback port; set-up is
// process start to the first healthy /healthz.
func startServer(bin string, client *http.Client) (*server, error) {
	cmd := command(bin, "-addr", "127.0.0.1:0")
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd}
	line, err := bufio.NewReader(out).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "dvserve listening on ")
	if err != nil || !ok {
		s.stop()
		return nil, fmt.Errorf("dvserve did not report its address: %q %v", line, err)
	}
	s.base = "http://" + addr
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t) > 30*time.Second {
			s.stop()
			return nil, fmt.Errorf("dvserve not healthy after 30 s: %v", err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	s.setup = time.Since(t)
	return s, nil
}

// stop kills the server, waits for it to exit and returns its peak RSS.
func (s *server) stop() float64 {
	s.cmd.Process.Kill()
	s.cmd.Wait()
	return peakRSSMB(s.cmd.ProcessState)
}

// served is the client's record of one request.
type served struct {
	lat    time.Duration
	err    string // empty when the response was complete and well formed
	digest string // metrics: body; stream: final snapshot; anomalies/{id}: body
	rows   int    // stream: sample events
	fleet  []byte // fleet: terminal event payload
}

func newClient() *http.Client {
	return &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxIdleConnsPerHost: runtime.NumCPU(), DisableCompression: true}}
}

// drive runs one pass as a closed loop: nproc connections, each sending
// its next request only after the previous reply is complete.
func drive(client *http.Client, base string, reqs []request, tr *tracer, parent int) ([]served, time.Duration) {
	out := make([]served, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t := time.Now()
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				id := tr.beginOn(lane, "serve."+reqs[i].kind, "serve", parent, int64(i))
				out[i] = do(client, base, reqs[i])
				tr.end(id)
			}
		}(c + 1)
	}
	wg.Wait()
	return out, time.Since(t)
}

// do sends one request and reads the reply to its last byte.
func do(client *http.Client, base string, q request) served {
	var s served
	t := time.Now()
	var resp *http.Response
	var err error
	if q.kind == "fleet" {
		resp, err = client.Post(base+q.path, "application/json", bytes.NewReader(q.body))
	} else {
		resp, err = client.Get(base + q.path)
	}
	if err != nil {
		s.lat, s.err = time.Since(t), err.Error()
		return s
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.lat = time.Since(t)
	switch {
	case err != nil:
		s.err = "reading body: " + err.Error()
	case resp.StatusCode/100 != 2:
		s.err = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	case q.kind == "stream":
		s.digest, s.rows, s.err = checkStream(body)
	case q.kind == "fleet":
		s.fleet, s.err = checkFleet(body)
	case q.kind == "anomalies" && q.path == "/anomalies":
		var list struct{ Anomalies []string }
		if err := json.Unmarshal(body, &list); err != nil || list.Anomalies == nil {
			s.err = fmt.Sprintf("bad /anomalies body: %v", err)
		}
	default:
		s.digest = sha(body)
	}
	return s
}

// sseEvent is one parsed server-sent event.
type sseEvent struct{ name, data string }

// parseSSE splits a complete SSE body into events. A body that does not
// end on an event boundary was truncated.
func parseSSE(body []byte) ([]sseEvent, string) {
	if !bytes.HasSuffix(body, []byte("\n\n")) {
		return nil, "truncated stream"
	}
	var evs []sseEvent
	for _, block := range strings.Split(strings.TrimSuffix(string(body), "\n\n"), "\n\n") {
		var ev sseEvent
		for _, line := range strings.Split(block, "\n") {
			if v, ok := strings.CutPrefix(line, "event: "); ok {
				ev.name = v
			} else if v, ok := strings.CutPrefix(line, "data: "); ok {
				ev.data = v
			}
		}
		if ev.name == "error" {
			return nil, "error event: " + ev.data
		}
		if ev.name != "" {
			evs = append(evs, ev)
		}
	}
	return evs, ""
}

// checkStream validates a /stream body: columns, samples, one snapshot,
// then anomaly events only.
func checkStream(body []byte) (string, int, string) {
	evs, bad := parseSSE(body)
	if bad != "" {
		return "", 0, bad
	}
	if len(evs) == 0 || evs[0].name != "columns" {
		return "", 0, "stream does not open with a columns event"
	}
	rows, snap := 0, ""
	for _, ev := range evs[1:] {
		switch {
		case ev.name == "sample" && snap == "":
			rows++
		case ev.name == "snapshot" && snap == "":
			snap = sha([]byte(ev.data))
		case ev.name == "anomaly" && snap != "":
		default:
			return "", 0, "unexpected " + ev.name + " event"
		}
	}
	if snap == "" {
		return "", 0, "stream ended without a snapshot"
	}
	return snap, rows, ""
}

// checkFleet validates a /fleet body and returns its terminal payload.
func checkFleet(body []byte) ([]byte, string) {
	evs, bad := parseSSE(body)
	if bad != "" {
		return nil, bad
	}
	if len(evs) == 0 || evs[len(evs)-1].name != "fleet" {
		return nil, "census stream did not end with a fleet event"
	}
	return []byte(evs[len(evs)-1].data), ""
}

// replayer re-executes dvserve's request handling in-process from the
// same public packages: the same 16-entry FIFO cache of wired Runners with
// a telemetry registry and a flight ring attached, the same encoders, and
// one shared census engine. It supplies the expected response of every
// request, and, traced, the per-layer cost of serving it.
type replayer struct {
	tr      *tracer
	entries map[scenario]*replayEntry
	order   []scenario
	eng     *fleet.Engine
	dumps   map[string]bool
	built   int // Runners wired
	rows    int // sample rows encoded
}

type replayEntry struct {
	rn     *sim.Runner
	reg    *telemetry.Registry
	ring   *flight.Ring
	digest string
}

func newReplayer(tr *tracer) *replayer {
	return &replayer{tr: tr, entries: map[scenario]*replayEntry{}, eng: fleet.NewEngine(), dumps: map[string]bool{}}
}

// run replays one scenario request on its cached Runner and seals any new
// anomaly dumps, as dvserve's runner.serve does.
func (r *replayer) run(s scenario, parent int, onSample func(telemetry.SampleRow)) *replayEntry {
	e, ok := r.entries[s]
	if !ok {
		if len(r.order) >= runnerCacheCap {
			delete(r.entries, r.order[0])
			r.order = append(r.order[:0], r.order[1:]...)
		}
		id := r.tr.begin("sim.new_runner", "sim", parent, 0)
		e = &replayEntry{reg: telemetry.NewRegistry(), ring: flight.New(flight.Config{})}
		cfg := s.config(e.reg)
		cfg.Recorder = e.ring
		e.digest = sim.ConfigDigest(cfg)
		e.rn = sim.NewRunner(cfg)
		r.tr.end(id)
		r.built++
		r.entries[s] = e
		r.order = append(r.order, s)
	}
	e.reg.OnSample(onSample)
	id := r.tr.begin("serve.run", "sim", parent, 0)
	e.rn.Run()
	r.tr.end(id)
	e.reg.OnSample(nil)
	for i := range e.ring.Dumps() {
		d := &e.ring.Dumps()[i]
		did := flight.DumpID(e.digest, i, d.Trigger.Kind)
		if r.dumps[did] {
			continue
		}
		r.dumps[did] = true
		id := r.tr.begin("flight.encode", "flight", parent, 0)
		var buf bytes.Buffer
		flight.EncodeDump(&buf, e.digest, d)
		r.tr.end(id)
	}
	return e
}

// metrics returns the /metrics body of a scenario.
func (r *replayer) metrics(s scenario, parent int) []byte {
	e := r.run(s, parent, nil)
	id := r.tr.begin("telemetry.prom_encode", "telemetry", parent, 0)
	var buf bytes.Buffer
	e.reg.WritePrometheus(&buf)
	r.tr.end(id)
	return buf.Bytes()
}

// stream returns the digest of a /stream snapshot payload and the number
// of sample rows the stream carries.
func (r *replayer) stream(s scenario, parent int) (string, int) {
	rows := 0
	e := r.run(s, parent, func(row telemetry.SampleRow) {
		id := r.tr.begin("telemetry.row_encode", "telemetry", parent, 0)
		json.Marshal(telemetry.RowSnapshot{AtNs: int64(row.At), Values: row.Values})
		r.tr.end(id)
		rows++
	})
	r.rows += rows
	id := r.tr.begin("telemetry.snapshot", "telemetry", parent, 0)
	data, _ := json.Marshal(e.reg.Snapshot())
	r.tr.end(id)
	return sha(data), rows
}

// fleet returns the terminal /fleet payload of a spec.
func (r *replayer) fleet(spec fleet.Spec, parent int) ([]byte, error) {
	id := r.tr.begin("fleet.census", "fleet", parent, 0)
	res, err := r.eng.Census(spec, func(c *fleet.CohortResult) { json.Marshal(c) })
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	id = r.tr.begin("fleet.result_encode", "fleet", parent, 0)
	data, err := json.Marshal(res)
	r.tr.end(id)
	return data, err
}

// replay serves one request in-process and returns the expected record.
func (r *replayer) replay(sc *script, q request, parent int) (served, error) {
	var s served
	switch q.kind {
	case "metrics":
		s.digest = sha(r.metrics(q.scen, parent))
	case "stream":
		s.digest, s.rows = r.stream(q.scen, parent)
	case "fleet":
		data, err := r.fleet(sc.specs[q.spec], parent)
		if err != nil {
			return s, err
		}
		s.fleet = data
	case "anomalies":
		if id, ok := strings.CutPrefix(q.path, "/anomalies/"); ok {
			data, ok := r.eng.AnomalyDump(id)
			if !ok {
				return s, fmt.Errorf("replay has no anomaly dump %s", id)
			}
			s.digest = sha(data)
		}
	}
	return s, nil
}

// verifier holds the expected response of each distinct request.
type verifier struct {
	rp    *replayer
	want  map[string]served // by request key
	norm  map[string]string // normalized digest by sha of a fleet payload
	dumps map[string]string // digest of each warm-spec anomaly dump by id
	fleet []string          // normalized digest of every /fleet result verified, in order
}

// newVerifier primes the replay's census engine with the warm specs, as
// serveLifetime primes each server.
func newVerifier(sc *script) (*verifier, error) {
	v := &verifier{rp: newReplayer(nil), want: map[string]served{}, norm: map[string]string{},
		dumps: map[string]string{}}
	for _, spec := range sc.specs[:warmSpecs] {
		if _, err := v.rp.fleet(spec, -1); err != nil {
			return nil, err
		}
	}
	// Kept apart from the replay engine: the fresh specs the verifier
	// replays over a whole run would push these out of its dump index.
	for _, id := range v.rp.eng.AnomalyIDs() {
		data, _ := v.rp.eng.AnomalyDump(id)
		v.dumps[id] = sha(data)
	}
	return v, nil
}

func (v *verifier) normalized(payload []byte) (string, error) {
	k := sha(payload)
	if d, ok := v.norm[k]; ok {
		return d, nil
	}
	d, err := normalizedDigest(json.RawMessage(payload))
	v.norm[k] = d
	return d, err
}

// verify checks every served response of a pass against the in-process
// replay: /metrics bodies byte for byte, /stream snapshots and row counts,
// /fleet results with cache accounting removed, anomaly dumps byte for
// byte. Every failure counts against the run.
func (v *verifier) verify(b *bench, sc *script, reqs []request, got []served) error {
	for i, q := range reqs {
		g := got[i]
		if !b.check(g.err == "", "%s %s: %s", q.kind, q.path, g.err) || q.path == "/anomalies" {
			continue
		}
		if id, ok := strings.CutPrefix(q.path, "/anomalies/"); ok {
			b.check(g.digest == v.dumps[id], "%s: dump differs from the in-process census", q.path)
			continue
		}
		key := q.path + string(q.body)
		w, ok := v.want[key]
		if !ok {
			var err error
			if w, err = v.rp.replay(sc, q, -1); err != nil {
				return err
			}
			v.want[key] = w
		}
		switch q.kind {
		case "fleet":
			gd, err := v.normalized(g.fleet)
			if err != nil {
				return err
			}
			wd, err := v.normalized(w.fleet)
			if err != nil {
				return err
			}
			b.check(gd == wd, "/fleet %s: result differs from the in-process census", sc.specs[q.spec].Name)
			v.fleet = append(v.fleet, gd)
		default:
			b.check(g.digest == w.digest && g.rows == w.rows,
				"%s %s: response differs from the in-process replay", q.kind, q.path)
		}
	}
	return nil
}

// warmDumpIDs lists the anomaly dumps the warm specs produce, so the
// script can fetch them by id.
func warmDumpIDs(seed int64) ([]string, error) {
	eng := fleet.NewEngine()
	var ids []string
	for _, spec := range newScript(seed, 0, nil).specs[:warmSpecs] {
		res, err := eng.Census(spec, nil)
		if err != nil {
			return nil, err
		}
		for _, c := range res.Cohorts {
			ids = append(ids, c.AnomalyDumps...)
		}
	}
	return ids, nil
}

// lifetime is one server's measurements.
type lifetime struct {
	setup  time.Duration
	rss    float64
	passes [][]served
	walls  []time.Duration
}

// serveLifetime starts a server, primes its census engine with the warm
// specs, drives every pass of the script and stops it. Passes from
// tracedFrom on record a span per request.
func serveLifetime(client *http.Client, bin string, sc *script, tr *tracer, tracedFrom, parent int) (*lifetime, error) {
	srv, err := startServer(bin, client)
	if err != nil {
		return nil, err
	}
	lt := &lifetime{setup: srv.setup}
	defer func() { lt.rss = srv.stop() }()
	for k := 0; k < warmSpecs; k++ {
		body, _ := json.Marshal(sc.specs[k])
		if g := do(client, srv.base, request{kind: "fleet", path: "/fleet", body: body}); g.err != "" {
			return nil, fmt.Errorf("priming /fleet: %s", g.err)
		}
	}
	for p, reqs := range sc.passes {
		ptr := tr
		if p < tracedFrom {
			ptr = nil
		}
		id := ptr.begin(fmt.Sprintf("serve.pass%d", p), "bench", parent, 0)
		got, wall := drive(client, srv.base, reqs, ptr, id)
		ptr.end(id)
		lt.passes = append(lt.passes, got)
		lt.walls = append(lt.walls, wall)
	}
	return lt, nil
}

// runServe measures the serve-mix workload: server lifetimes, each a
// cold pass and warm passes of the seeded script, until the run's time is
// used. Responses are verified after the measured phase.
func runServe(b *bench) error {
	ids, err := warmDumpIDs(b.seed)
	if err != nil {
		return err
	}
	client := newClient()
	v, err := newVerifier(newScript(b.seed, 0, ids))
	if err != nil {
		return err
	}
	var setups, rss, cold, warm []float64
	lat := map[string][]float64{}
	counts := map[string]int{}
	life := 0
	err = repeat(b, func() error {
		sc := newScript(b.seed, life, ids)
		lt, err := serveLifetime(client, b.dvserve, sc, nil, servePasses, -1)
		if err != nil {
			return err
		}
		setups = append(setups, lt.setup.Seconds())
		rss = append(rss, lt.rss)
		for p, got := range lt.passes {
			rps := float64(len(got)) / lt.walls[p].Seconds()
			if p == 0 {
				cold = append(cold, rps)
			} else {
				warm = append(warm, rps)
			}
			for i, g := range got {
				k := sc.passes[p][i].kind
				counts[k]++
				if p > 0 {
					lat[k] = append(lat[k], ms(g.lat))
				}
			}
			if err := v.verify(b, sc, sc.passes[p], got); err != nil {
				return err
			}
		}
		if life == 0 {
			for p, reqs := range sc.passes {
				b.count(fmt.Sprintf("serve.pass%d", p), kindCounts(reqs))
			}
			b.count("serve.fleet_results", sha([]byte(strings.Join(v.fleet, ","))))
		}
		life++
		return nil
	})
	if err != nil {
		return err
	}
	for i := 0; i < setupProbeCount; i++ {
		srv, err := startServer(b.dvserve, client)
		if err != nil {
			return err
		}
		setups = append(setups, srv.setup.Seconds())
		srv.stop()
	}
	b.set("setup_s", median(setups))
	b.set("peak_rss_mb", median(rss))
	b.set("cold_ops_per_s", median(cold))
	b.set("warm_ops_per_s", median(warm))
	fmt.Printf("# serve-mix: %d server lifetimes, %d passes of %d requests over %d connections; request counts %v\n",
		len(cold), len(cold)+len(warm), passRequests, runtime.NumCPU(), counts)
	for _, k := range sortedKeys(lat) {
		p := tailPercentile(len(lat[k]))
		fmt.Printf("# serve-mix %-9s warm latency p50 %.3f ms, p%g %.3f ms (%d samples)\n",
			k, median(lat[k]), p, percentile(lat[k], p), len(lat[k]))
	}
	return nil
}

// kindCounts counts a pass's requests per endpoint.
func kindCounts(reqs []request) map[string]int {
	n := map[string]int{}
	for _, q := range reqs {
		n[q.kind]++
	}
	return n
}
