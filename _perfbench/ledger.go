package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"dvsync/internal/display"
	"dvsync/internal/fault"
	"dvsync/internal/fleet"
	"dvsync/internal/flight"
	"dvsync/internal/ipl"
	"dvsync/internal/par"
	"dvsync/internal/scenarios"
	"dvsync/internal/sim"
	"dvsync/internal/simtime"
	"dvsync/internal/telemetry"
	"dvsync/internal/workload"
)

// ledgerLayers are the layers whose self time the traced run reports;
// "bench" is the benchmark's own code between layer calls, the
// unattributed residual.
var ledgerLayers = []string{"exp", "par", "workload", "sim", "flight", "telemetry", "fleet", "serve", "bench"}

// target names the end-to-end metric (and workload) a per-layer metric
// should move.
func target(name string) string {
	switch {
	case strings.HasPrefix(name, "exp."):
		return "cold_ops_per_s on paper-suite (suite_s)"
	case name == "par.busy_share":
		return "cold_ops_per_s on paper-suite and fleet-census"
	case strings.HasPrefix(name, "workload."), strings.HasPrefix(name, "sim.digest"),
		name == "fleet.classify_us":
		return "warm_ops_per_s on fleet-census and serve-mix (/fleet)"
	case strings.HasPrefix(name, "sim.new_runner"), name == "sim.runners_built":
		return "warm_ops_per_s on serve-mix (/metrics misses)"
	case strings.HasPrefix(name, "sim."), name == "event.fired":
		return "cold_ops_per_s on fleet-census and paper-suite; warm_ops_per_s on serve-mix"
	case strings.HasPrefix(name, "flight."):
		return "cold_ops_per_s on fleet-census; warm_ops_per_s on serve-mix"
	case name == "telemetry.merge_us":
		return "cold_ops_per_s and warm_ops_per_s on fleet-census"
	case strings.HasPrefix(name, "telemetry."):
		return "warm_ops_per_s on serve-mix (/metrics, /stream)"
	case strings.HasPrefix(name, "fleet."):
		return "cold_ops_per_s and warm_ops_per_s on fleet-census; warm_ops_per_s on serve-mix (/fleet)"
	case strings.HasPrefix(name, "serve."):
		return "cold_ops_per_s and warm_ops_per_s on serve-mix"
	case strings.HasPrefix(name, "ladder."):
		return "cold_ops_per_s on fleet-census; warm_ops_per_s on serve-mix (instrumentation price per run)"
	case strings.HasPrefix(name, "self."):
		return "as the layer's own metrics; the share of the traced run spent in the layer"
	case strings.HasPrefix(name, "trace."):
		return "none: the cost and coverage of the tracing itself"
	}
	return ""
}

// runLedger is the traced run. It replays each layer's calls from the
// benchmark's own code with spans around them — the paper suite, the
// census, the served requests and the instrumentation ladder — so every
// per-layer metric is measured on every workload; the workload itself
// decides the census scale and which end-to-end job the tracing overhead
// and the unattributed residual are reported against.
func runLedger(b *bench) error {
	type part struct {
		name string
		fn   func(*bench) (overhead, residual float64, err error)
	}
	for _, p := range []part{{"paper-suite", suiteLedger}, {"fleet-census", censusLedger}, {"serve-mix", serveLedger}} {
		overhead, residual, err := p.fn(b)
		if err != nil {
			return fmt.Errorf("%s ledger: %w", p.name, err)
		}
		if p.name == b.workload {
			b.set("trace.overhead_share", overhead)
			b.set("trace.residual_share", residual)
		}
	}
	ladder(b)
	self := b.tr.selfTimes()
	for _, l := range ledgerLayers {
		b.set("self."+l+"_s", self[l].Seconds())
	}
	dir := filepath.Join(b.root, ".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))
	fmt.Printf("# trace: %d spans written to %s\n", len(b.tr.spans()), path)
	return b.tr.writeChrome(path)
}

// residualOf is a root span's self time as a share of its duration: the
// part of a traced job no layer span accounts for.
func residualOf(tr *tracer, root int) float64 {
	all := tr.spans()
	var ivs [][2]int64
	for _, s := range all {
		if s.Parent == root {
			ivs = append(ivs, [2]int64{s.Start, s.End})
		}
	}
	d := all[root].End - all[root].Start
	return float64(d-covered(ivs)) / float64(d)
}

// suiteLedger renders the suite traced in a fresh worker, one span per
// experiment. On the paper-suite workload an untraced worker renders it
// too, for the tracing overhead.
func suiteLedger(b *bench) (float64, float64, error) {
	w, r, _, err := suiteRun(b, true)
	if err != nil {
		return 0, 0, err
	}
	root := b.tr.begin("suite.worker", "bench", -1, 0)
	b.tr.adopt(r.Spans, w.start.Add(w.setup), root, 0)
	b.tr.end(root)
	for _, s := range b.tr.spans() {
		if id, ok := strings.CutPrefix(s.Name, "exp."); ok {
			b.set("exp."+id+"_s", float64(s.End-s.Start)/1e9)
		}
	}
	var cold int
	for i, s := range b.tr.spans() {
		if s.Name == "suite.cold" {
			cold = i
		}
	}
	if b.workload != "paper-suite" {
		return 0, 0, nil
	}
	traced := r.ColdS
	_, r, _, err = suiteRun(b, false)
	if err != nil {
		return 0, 0, err
	}
	return (traced - r.ColdS) / r.ColdS, residualOf(b.tr, cold), nil
}

// replayCell is one census cell rebuilt from public packages, mirroring
// internal/fleet's expansion (cohort → hz → mode → replica).
type replayCell struct {
	base   sim.Config // everything but the trace
	prof   workload.Profile
	frames int
	seed   int64
	shape  string
}

type replayCohort struct {
	name  string
	cells []replayCell
}

// expandSpec resolves a census spec the way fleet.Spec does, from the
// device catalog, the workload profiles and the fault scenarios.
func expandSpec(s fleet.Spec) ([]replayCohort, error) {
	seed := s.Seed
	if seed == 0 {
		seed = fleet.DefaultSeed
	}
	var out []replayCohort
	for i, c := range s.Cohorts {
		rc := replayCohort{name: c.Name}
		if rc.name == "" {
			rc.name = fmt.Sprintf("cohort%d", i+1)
		}
		dev := map[string]scenarios.Device{"": scenarios.Pixel5, "pixel5": scenarios.Pixel5,
			"mate40": scenarios.Mate40Pro, "mate60": scenarios.Mate60Pro}[c.Device]
		hzs := c.Hz
		if len(hzs) == 0 {
			hzs = []int{dev.RefreshHz}
		}
		modes := c.Modes
		if len(modes) == 0 {
			modes = []string{"vsync", "dvsync"}
		}
		buffers := firstNonZero(c.Buffers, dev.Buffers)
		frames := firstNonZero(c.Frames, s.Frames, fleet.DefaultFrames)
		replicas := firstNonZero(c.Replicas, s.Replicas, 1)
		var faults *fault.Config
		if c.Fault != "" && c.Fault != "none" {
			sev := fleet.DefaultSeverity
			if c.Severity != nil {
				sev = *c.Severity
			}
			fc, err := fault.Scenario(c.Fault, sev, simtime.Time(simtime.FromMillis(500)),
				simtime.Time(simtime.FromSeconds(3600)), seed)
			if err != nil {
				return nil, err
			}
			faults = fc
		}
		for _, hz := range hzs {
			d := dev
			d.RefreshHz = hz
			prof, err := replayProfile(c.Workload, d)
			if err != nil {
				return nil, err
			}
			for _, m := range modes {
				mode := sim.ModeDVSync
				if m == "vsync" {
					mode = sim.ModeVSync
				}
				for r := 0; r < replicas; r++ {
					rc.cells = append(rc.cells, replayCell{
						base: sim.Config{Mode: mode, Panel: d.Panel(), Buffers: buffers, Faults: faults},
						prof: prof, frames: frames, seed: seed + int64(r),
						shape: fmt.Sprintf("%s|%d|%s|%d|%p", d.Name, hz, m, buffers, faults),
					})
				}
			}
		}
		out = append(out, rc)
	}
	return out, nil
}

func firstNonZero(vs ...int) int {
	for _, v := range vs {
		if v != 0 {
			return v
		}
	}
	return 0
}

// replayProfile mirrors fleet's canonical per-workload profiles.
func replayProfile(key string, dev scenarios.Device) (workload.Profile, error) {
	switch key {
	case "", "default":
		return workload.DefaultProfile("fleet-default", dev.Period().Milliseconds()), nil
	case "scattered":
		return scenarios.BaseProfile("fleet-scattered", dev, scenarios.Scattered, workload.Deterministic), nil
	case "moderate":
		return scenarios.BaseProfile("fleet-moderate", dev, scenarios.Moderate, workload.Deterministic), nil
	case "heavy-tail":
		return scenarios.BaseProfile("fleet-heavy-tail", dev, scenarios.HeavyTail, workload.Deterministic), nil
	case "mixed":
		return scenarios.MixedRealWorldProfile(), nil
	}
	return workload.Profile{}, fmt.Errorf("unknown workload %q", key)
}

// cellOut is one simulated cell's outcome.
type cellOut struct {
	fdps      float64
	anomalous bool
	latency   *telemetry.Histogram
}

// censusReplay is a classify → simulate → merge census executed by the
// benchmark, with a span around every layer call.
type censusReplay struct {
	tr        *tracer
	cache     map[string]*cellOut
	fired     atomic.Uint64
	dumps     atomic.Int64
	anomalous atomic.Int64
	lanes     atomic.Int64
	simulated int
	hits      int
	cells     int
}

// cohortStat is what the replay must agree with the real census on.
type cohortStat struct {
	simulated, hits, anomalies int
	meanFDPS                   float64
}

type replayWorker struct {
	lane    int
	runners map[string]*sim.Runner
}

// census replays one census over the cohorts.
func (r *censusReplay) census(cohorts []replayCohort, parent int) []cohortStat {
	var stats []cohortStat
	for _, rc := range cohorts {
		cid := r.tr.begin("fleet.cohort", "fleet", parent, 0)
		cls := r.tr.begin("fleet.classify", "fleet", cid, 0)
		cfgs := make([]sim.Config, len(rc.cells))
		digests := make([]string, len(rc.cells))
		outs := make([]*cellOut, len(rc.cells))
		var need []int
		pending := map[string]int{}
		hits := 0
		for i, c := range rc.cells {
			id := r.tr.begin("workload.generate", "workload", cls, 0)
			cfgs[i] = c.base
			cfgs[i].Trace = c.prof.Generate(c.frames, c.seed)
			r.tr.end(id)
			id = r.tr.begin("sim.digest", "sim", cls, 0)
			digests[i] = sim.ConfigDigest(cfgs[i])
			r.tr.end(id)
			if out, ok := r.cache[digests[i]]; ok {
				outs[i] = out
				hits++
				continue
			}
			if _, ok := pending[digests[i]]; ok {
				hits++
				continue
			}
			pending[digests[i]] = len(need)
			need = append(need, i)
		}
		r.tr.end(cls)
		pm := r.tr.begin("par.map", "par", cid, 0)
		fresh := par.MapLocal(len(need), func() *replayWorker {
			return &replayWorker{lane: int(r.lanes.Add(1)), runners: map[string]*sim.Runner{}}
		}, func(wk *replayWorker, j int) *cellOut {
			i := need[j]
			job := r.tr.beginOn(wk.lane, "par.job", "par", pm, 0)
			defer r.tr.end(job)
			return r.simulate(wk, rc.cells[i].shape, cfgs[i], digests[i], job)
		})
		r.tr.end(pm)
		mg := r.tr.begin("telemetry.merge", "telemetry", cid, 0)
		for j, i := range need {
			outs[i] = fresh[j]
			r.cache[digests[i]] = fresh[j]
		}
		hist := telemetry.NewHistogram(telemetry.LatencyBucketsMs)
		var fdpsSum float64
		anomalies := 0
		for i := range outs {
			if outs[i] == nil {
				outs[i] = fresh[pending[digests[i]]]
			}
			fdpsSum += outs[i].fdps
			hist.Merge(outs[i].latency)
			if outs[i].anomalous {
				anomalies++
			}
		}
		r.tr.end(mg)
		r.tr.end(cid)
		r.simulated += len(need)
		r.hits += hits
		r.cells += len(outs)
		stats = append(stats, cohortStat{simulated: len(need), hits: hits, anomalies: anomalies,
			meanFDPS: fdpsSum / float64(len(outs))})
	}
	return stats
}

// simulate runs one cell on the worker's pooled Runner for its shape and
// re-runs an anomalous cell fresh with the flight recorder, as fleet does.
func (r *censusReplay) simulate(wk *replayWorker, shape string, cfg sim.Config, digest string, parent int) *cellOut {
	rn, ok := wk.runners[shape]
	if !ok {
		rn = sim.NewRunner(cfg)
		wk.runners[shape] = rn
	}
	id := r.tr.beginOn(wk.lane, "sim.run", "sim", parent, 0)
	res := rn.RunTrace(cfg.Trace)
	r.tr.end(id)
	r.fired.Add(rn.System().Engine().Fired())
	out := &cellOut{fdps: res.FDPS(), latency: telemetry.NewHistogram(telemetry.LatencyBucketsMs)}
	for _, v := range res.LatencyMs {
		out.latency.Observe(v)
	}
	if !res.Completed || len(res.Fallbacks) > 0 || len(res.Janks) >= fleet.AnomalyJankThreshold {
		out.anomalous = true
		r.anomalous.Add(1)
		id := r.tr.beginOn(wk.lane, "flight.rerun", "flight", parent, 0)
		ring := flight.New(flight.Config{})
		cfg.Recorder = ring
		sim.Run(cfg)
		r.tr.end(id)
		for i := range ring.Dumps() {
			id := r.tr.beginOn(wk.lane, "flight.encode", "flight", parent, 0)
			var buf bytes.Buffer
			flight.EncodeDump(&buf, digest, &ring.Dumps()[i])
			r.tr.end(id)
			r.dumps.Add(1)
		}
	}
	return out
}

// agree checks the replay's per-cohort accounting and mean FDPS against
// the real census result, so the replay cannot drift into measuring a
// different program.
func agree(b *bench, phase string, stats []cohortStat, res *fleet.Result) {
	b.check(len(stats) == len(res.Cohorts), "%s census replay: %d cohorts, census has %d", phase, len(stats), len(res.Cohorts))
	for i, c := range res.Cohorts[:min(len(stats), len(res.Cohorts))] {
		s := stats[i]
		b.check(s.simulated == c.Simulated && s.hits == c.CacheHits && s.anomalies == c.Anomalies && s.meanFDPS == c.MeanFDPS,
			"%s census replay of cohort %s: simulated/hits/anomalies/FDPS %d/%d/%d/%v, census %d/%d/%d/%v",
			phase, c.Name, s.simulated, s.hits, s.anomalies, s.meanFDPS, c.Simulated, c.CacheHits, c.Anomalies, c.MeanFDPS)
	}
}

// ledgerCensusReplicas scales the census replay on workloads other than
// fleet-census, where it only has to exercise each layer.
const ledgerCensusReplicas = 30

// freshRuns is how many cells the ledger also runs through sim.Run, a
// fresh wiring per run.
const freshRuns = 40

// realCensus runs the census cold and then warm on a fresh engine,
// untraced; the engine is dropped before the replay allocates its own.
func realCensus(spec fleet.Spec) (cold, warm *fleet.Result, coldWall time.Duration, err error) {
	eng := fleet.NewEngine()
	t := time.Now()
	if cold, err = eng.Census(spec, nil); err != nil {
		return nil, nil, 0, err
	}
	coldWall = time.Since(t)
	warm, err = eng.Census(spec, nil)
	return cold, warm, coldWall, err
}

// censusLedger runs the real census untraced, replays it traced and
// checks the two agree. The tracing overhead on fleet-census is the
// replay's cold time over the real cold census.
func censusLedger(b *bench) (float64, float64, error) {
	replicas := ledgerCensusReplicas
	if b.workload == "fleet-census" {
		replicas = censusReplicas
	}
	spec := censusSpec(b.seed, replicas)
	cohorts, err := expandSpec(spec)
	if err != nil {
		return 0, 0, err
	}
	cold, warm, coldWall, err := realCensus(spec)
	if err != nil {
		return 0, 0, err
	}
	var encoded int
	for i := 0; i < 5; i++ {
		id := b.tr.begin("fleet.result_encode", "fleet", -1, 0)
		var buf bytes.Buffer
		if err := cold.WriteJSON(&buf); err != nil {
			return 0, 0, err
		}
		b.tr.end(id)
		encoded = buf.Len()
	}

	rp := &censusReplay{tr: b.tr, cache: map[string]*cellOut{}}
	root := b.tr.begin("census.replay.cold", "bench", -1, 0)
	replayWall := time.Now()
	agree(b, "cold", rp.census(cohorts, root), cold)
	traced := time.Since(replayWall)
	b.tr.end(root)
	simulated, hits, cells := rp.simulated, rp.hits, rp.cells
	wroot := b.tr.begin("census.replay.warm", "bench", -1, 0)
	agree(b, "warm", rp.census(cohorts, wroot), warm)
	b.tr.end(wroot)

	for _, c := range cohorts[0].cells[:min(freshRuns, len(cohorts[0].cells))] {
		cfg := c.base
		cfg.Trace = c.prof.Generate(c.frames, c.seed)
		id := b.tr.begin("sim.fresh_run", "sim", -1, 0)
		sim.Run(cfg)
		b.tr.end(id)
	}

	avg := func(name string) float64 {
		d, n := b.tr.total(name)
		return us(d) / float64(max(n, 1))
	}
	runTotal, runs := b.tr.total("sim.run")
	_, traces := b.tr.total("workload.generate")
	_, digests := b.tr.total("sim.digest")
	jobs, _ := b.tr.total("par.job")
	maps, _ := b.tr.total("par.map")
	mergeTotal, merges := b.tr.total("telemetry.merge")
	classify, _ := b.tr.total("fleet.classify")
	b.set("workload.generate_us", avg("workload.generate"))
	b.set("workload.traces", float64(traces))
	b.set("sim.digest_us", avg("sim.digest"))
	b.set("sim.digests", float64(digests))
	b.set("fleet.classify_us", us(classify)/float64(2*cells))
	b.set("sim.run_us", avg("sim.run"))
	b.set("sim.fresh_run_us", avg("sim.fresh_run"))
	b.set("event.fired", float64(rp.fired.Load()))
	b.set("sim.ns_per_event", float64(runTotal.Nanoseconds())/float64(max(rp.fired.Load(), 1)))
	b.set("flight.rerun_us", avg("flight.rerun"))
	b.set("flight.anomaly_share", float64(rp.anomalous.Load())/float64(max(simulated, 1)))
	b.set("flight.dumps", float64(rp.dumps.Load()))
	b.set("flight.encode_us", avg("flight.encode"))
	b.set("telemetry.merge_us", us(mergeTotal)/float64(max(merges, 1)))
	b.set("fleet.cache_hit_ratio", float64(hits)/float64(cells))
	b.set("fleet.simulated", float64(simulated))
	b.set("fleet.cache_hits", float64(hits))
	b.set("fleet.result_encode_us", avg("fleet.result_encode"))
	b.set("par.busy_share", float64(jobs)/float64(maps)/float64(par.Workers()))
	for k, v := range map[string]any{"event.fired": rp.fired.Load(), "fleet.simulated": simulated,
		"fleet.cache_hits": hits, "flight.dumps": rp.dumps.Load(), "workload.traces": traces,
		"sim.digests": digests, "sim.runs": runs, "census.result_bytes": encoded} {
		b.count(k, v)
	}
	return (traced.Seconds() - coldWall.Seconds()) / coldWall.Seconds(), residualOf(b.tr, root), nil
}

// serveLedger drives one untraced and one traced pass against a real
// dvserve, then replays the pass in-process, traced, for the layer costs.
// dvserve's overhead per endpoint is the client's median latency minus
// the in-process replay's median for the same requests.
func serveLedger(b *bench) (float64, float64, error) {
	ids, err := warmDumpIDs(b.seed)
	if err != nil {
		return 0, 0, err
	}
	sc := newScript(b.seed, 0, ids)
	root := b.tr.begin("serve.lifetime", "bench", -1, 0)
	lt, err := serveLifetime(newClient(), b.dvserve, sc, b.tr, servePasses-1, root)
	b.tr.end(root)
	if err != nil {
		return 0, 0, err
	}
	v, err := newVerifier(sc)
	if err != nil {
		return 0, 0, err
	}
	for p, got := range lt.passes {
		if err := v.verify(b, sc, sc.passes[p], got); err != nil {
			return 0, 0, err
		}
	}
	tracedPass := -1
	for i, s := range b.tr.spans() {
		if s.Name == fmt.Sprintf("serve.pass%d", servePasses-1) {
			tracedPass = i
		}
	}
	// The replay mirrors the server: primed with the warm specs, then
	// pass 0 untimed to warm its Runner cache, then pass 1 — warm and
	// untraced on the server — timed request by request.
	rp := newReplayer(nil)
	for _, spec := range sc.specs[:warmSpecs] {
		if _, err := rp.fleet(spec, -1); err != nil {
			return 0, 0, err
		}
	}
	for _, q := range sc.passes[0] {
		if _, err := rp.replay(sc, q, -1); err != nil {
			return 0, 0, err
		}
	}
	rp.tr, rp.built, rp.rows = b.tr, 0, 0
	client := map[string][]float64{} // µs, pass 1
	replay := map[string][]float64{}
	lat := map[string][]float64{} // ms, passes 1 and 2
	rroot := b.tr.begin("serve.replay", "bench", -1, 0)
	for i, q := range sc.passes[1] {
		client[q.kind] = append(client[q.kind], us(lt.passes[1][i].lat))
		lat[q.kind] = append(lat[q.kind], ms(lt.passes[1][i].lat), ms(lt.passes[2][i].lat))
		id := b.tr.begin("replay."+q.kind, "serve", rroot, int64(i))
		if _, err := rp.replay(sc, q, id); err != nil {
			return 0, 0, err
		}
		replay[q.kind] = append(replay[q.kind], us(b.tr.end(id)))
	}
	b.tr.end(rroot)
	for _, k := range []string{"metrics", "stream", "fleet"} {
		b.set("serve.overhead_us."+k, median(client[k])-median(replay[k]))
	}
	for _, k := range []string{"metrics", "stream", "fleet", "anomalies"} {
		b.set("serve.requests."+k, float64(len(client[k])))
		b.count("serve.requests."+k, len(client[k]))
	}
	b.set("serve.metrics_p50_ms", median(lat["metrics"]))
	b.set("serve.metrics_p99_ms", percentile(lat["metrics"], 99))
	b.set("serve.stream_p50_ms", median(lat["stream"]))
	b.set("serve.stream_p90_ms", percentile(lat["stream"], 90))
	b.set("serve.fleet_p50_ms", median(lat["fleet"]))
	b.set("serve.fleet_p90_ms", percentile(lat["fleet"], 90))
	fmt.Printf("# serve-mix ledger latency samples: %d metrics, %d stream, %d fleet\n",
		len(lat["metrics"]), len(lat["stream"]), len(lat["fleet"]))

	avg := func(name string) float64 {
		d, n := b.tr.total(name)
		return us(d) / float64(max(n, 1))
	}
	b.set("sim.new_runner_us", avg("sim.new_runner"))
	b.set("sim.runners_built", float64(rp.built))
	b.set("telemetry.prom_encode_us", avg("telemetry.prom_encode"))
	b.set("telemetry.snapshot_us", avg("telemetry.snapshot"))
	b.set("telemetry.row_encode_us", avg("telemetry.row_encode"))
	b.set("telemetry.rows", float64(rp.rows))
	b.count("sim.runners_built", rp.built)
	b.count("telemetry.rows", rp.rows)
	untraced, traced := lt.walls[1].Seconds(), lt.walls[2].Seconds()
	return (traced - untraced) / untraced, residualOf(b.tr, tracedPass), nil
}

// ladderRounds is how many runs each ladder step contributes.
const ladderRounds = 300

// ladder prices each instrumentation attachment on a reused Runner over
// the pinned 400-frame D-VSync trace (internal/bench's workload): bare,
// plus a telemetry registry, plus a flight ring, plus a fault injector,
// and registry plus ring together as dvserve wires it. Steps are
// interleaved round by round so host drift hits them alike; each reports
// its median run time and its events fired per run.
func ladder(b *bench) {
	p := workload.Profile{Name: "bench", ShortMeanMs: 5, ShortSigmaMs: 2,
		LongRatio: 0.06, LongScaleMs: 20, LongAlpha: 1.8,
		Burstiness: 0.3, UIShare: 0.4, Class: workload.Interactive}
	tr := p.Generate(400, 1234)
	base := func() sim.Config {
		return sim.Config{Mode: sim.ModeDVSync,
			Panel:   display.Config{Name: "test", RefreshHz: 60, Width: 1080, Height: 2340},
			Buffers: 4, Trace: tr, Predictor: ipl.Kalman{}}
	}
	jitter, err := fault.Scenario("jitter", 0.5, simtime.Time(simtime.FromMillis(500)),
		simtime.Time(simtime.FromSeconds(3600)), 1)
	if err != nil {
		panic(err) // a fixed, valid scenario
	}
	steps := []struct {
		name string
		edit func(*sim.Config)
	}{
		{"bare", func(*sim.Config) {}},
		{"telemetry", func(c *sim.Config) { c.Metrics = telemetry.NewRegistry() }},
		{"flight", func(c *sim.Config) { c.Recorder = flight.New(flight.Config{}) }},
		{"fault", func(c *sim.Config) { c.Faults = jitter }},
		{"serve", func(c *sim.Config) {
			c.Metrics = telemetry.NewRegistry()
			c.Recorder = flight.New(flight.Config{})
		}},
	}
	runners := make([]*sim.Runner, len(steps))
	samples := make([][]float64, len(steps))
	for i, s := range steps {
		cfg := base()
		s.edit(&cfg)
		runners[i] = sim.NewRunner(cfg)
		runners[i].Run() // grow every arena to the workload's high-water mark
	}
	for r := 0; r < ladderRounds; r++ {
		for k := range steps {
			i := (r + k) % len(steps)
			id := b.tr.begin("ladder."+steps[i].name, "sim", -1, int64(r))
			runners[i].Run()
			samples[i] = append(samples[i], us(b.tr.end(id)))
		}
	}
	for i, s := range steps {
		events := runners[i].System().Engine().Fired()
		b.set("ladder."+s.name+"_us", median(samples[i]))
		b.set("ladder."+s.name+"_events", float64(events))
		b.count("ladder."+s.name+"_events", events)
	}
}
