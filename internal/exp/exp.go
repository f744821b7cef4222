// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§3 and §6) from simulation.
//
// Methodology. The paper measured its VSync baselines on real devices; a
// simulator cannot derive those absolute numbers from first principles.
// Each scenario therefore carries the paper's measured baseline as a
// *calibration target*: the harness scales the scenario's workload until
// the simulated conventional-VSync system reproduces that baseline, then
// runs D-VSync (and buffer sweeps, latency measurements, …) on the exact
// same calibrated workload. Every D-VSync-side number is thus an output of
// the mechanism under test, never a transcribed constant.
package exp

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync/atomic"

	"dvsync/internal/dist"
	"dvsync/internal/par"
	"dvsync/internal/scenarios"
	"dvsync/internal/sim"
	"dvsync/internal/vsyncrec"
	"dvsync/internal/workload"
)

// Seed is the master seed for all synthesised workloads; experiments are
// fully deterministic.
const Seed int64 = 20250330

// VSyncConfig is the conventional-architecture configuration for a device
// and queue size, without a trace: VSyncRun and avgFDPS each supply the
// trace.
func VSyncConfig(dev scenarios.Device, buffers int) sim.Config {
	return sim.Config{
		Mode:    sim.ModeVSync,
		Panel:   dev.Panel(),
		Buffers: buffers,
	}
}

// DVSyncConfig is the D-VSync configuration for a device and queue size.
// Option functions tune the config (predictor registration, fallback
// supervision, …) exactly as DVSyncRun's always did.
func DVSyncConfig(dev scenarios.Device, buffers int, cfg ...func(*sim.Config)) sim.Config {
	c := sim.Config{
		Mode:    sim.ModeDVSync,
		Panel:   dev.Panel(),
		Buffers: buffers,
	}
	for _, f := range cfg {
		f(&c)
	}
	return c
}

// VSyncRun simulates the conventional architecture.
func VSyncRun(tr *workload.Trace, dev scenarios.Device, buffers int) *sim.Result {
	c := VSyncConfig(dev, buffers)
	c.Trace = tr
	return sim.Run(c)
}

// DVSyncRun simulates D-VSync with the given queue size. For Interactive
// workloads the decoupling-aware channel is enabled with the supplied
// predictor (nil leaves interactive frames on the VSync path).
func DVSyncRun(tr *workload.Trace, dev scenarios.Device, buffers int, cfg ...func(*sim.Config)) *sim.Result {
	c := DVSyncConfig(dev, buffers, cfg...)
	c.Trace = tr
	return sim.Run(c)
}

// Replicas is the number of measurement runs averaged per scenario,
// following the paper's methodology: "Averages are derived from five runs
// to mitigate fluctuations" (Appendix A.2). Replicas share the calibrated
// workload parameters but draw independent frame sequences.
const Replicas = 5

// calibration is the tuned workload parameterisation for one scenario.
type calibration struct {
	ratio float64 // key-frame rate (Profile.LongRatio)
	scale float64 // cost multiplier (1 unless the rate ceiling was hit)
}

// calibMap is the memoised (scenario, device, buffers) → calibration view.
type calibMap map[string]calibration

// calibCache memoises calibrations: several experiments (Figures 5, 6, 15,
// §6.7) reuse the same scenario sets, and calibration dominates their cost.
// It is a mutex-free copy-on-write map: lookups are one atomic load, and a
// miss publishes by CAS-swapping a copied map. Concurrent par.Map jobs may
// race to compute the same entry, but calibration is deterministic, so
// whichever copy publishes first is identical to the losers' — the cache
// never affects results, only how often the search runs.
var calibCache atomic.Pointer[calibMap]

// calibSearches counts full (uncached) calibration searches — the test
// hook asserting the memoisation contract.
var calibSearches atomic.Int64

// calibSims counts the replica simulations calibration searches ran — the
// deterministic work counter for the search itself.
var calibSims atomic.Int64

// calibProbes counts the probes calibration searches wired: at most one
// per worker per search, however many probe runs the search makes.
var calibProbes atomic.Int64

func init() {
	m := calibMap{}
	calibCache.Store(&m)
}

// resetCalibCache empties the cache and zeroes its counters (tests only).
func resetCalibCache() {
	m := calibMap{}
	calibCache.Store(&m)
	calibSearches.Store(0)
	calibSims.Store(0)
	calibProbes.Store(0)
}

func calibKey(p workload.Profile, frames int, dev scenarios.Device, buffers int,
	target float64, seed int64) string {
	return fmt.Sprintf("%+v|%d|%s|%d|%g|%d", p, frames, dev.Name, buffers, target, seed)
}

// calibrateParams tunes the profile until the simulated VSync baseline FDPS
// matches the paper's measured target.
//
// The primary knob is the key-frame rate (Profile.LongRatio): frame drops
// on real devices come from how often heavy key frames occur, not from the
// whole workload scaling up (§3's power-law characterisation keeps the
// short-frame body well under the period). If even a high key-frame rate
// cannot reach the target — very hot cases — a secondary cost-scale search
// takes over with the rate pinned at its ceiling.
func calibrateParams(p workload.Profile, frames int, dev scenarios.Device, buffers int,
	target float64, seed int64) calibration {
	if target <= 0 {
		return calibration{ratio: 0.01, scale: 1}
	}
	key := calibKey(p, frames, dev, buffers, target, seed)
	if c, ok := (*calibCache.Load())[key]; ok {
		return c
	}
	c := calibrateParamsUncached(p, frames, dev, buffers, target, seed)
	for {
		old := calibCache.Load()
		if prev, ok := (*old)[key]; ok {
			return prev // a concurrent job published first; values agree
		}
		next := make(calibMap, len(*old)+1)
		for k, v := range *old {
			next[k] = v
		}
		next[key] = c
		if calibCache.CompareAndSwap(old, &next) {
			return c
		}
	}
}

// calibrateParamsUncached runs one calibration search under the
// phase=exp.calibrate profile label. Its probes fan out through
// par.MapLocals over a free list scoped to the search, so each worker
// wires one probe — the VSync recurrence, a trace buffer and a stream —
// for the whole search and every probe after its first allocates nothing:
// the ratio branch regenerates into the buffer with the stream rewound
// (workload.Profile.GenerateInto), the cost-scale branch scales into it.
// A probe reads FDPS before its next run, which overwrites the result.
func calibrateParamsUncached(p workload.Profile, frames int, dev scenarios.Device, buffers int,
	target float64, seed int64) (c calibration) {
	calibSearches.Add(1)
	calibrating(func() { c = searchParams(p, frames, dev, buffers, target, seed) })
	return c
}

// searchParams is calibrateParamsUncached's search.
func searchParams(p workload.Profile, frames int, dev scenarios.Device, buffers int,
	target float64, seed int64) calibration {
	const maxRatio = 0.30
	probes := &par.Locals[*probe]{New: func() *probe { return newProbe(dev, buffers) }}
	// The search matches the *replica mean* — the quantity the experiments
	// report — so the five-run averages land on the measured baselines.
	// Each replica keeps the FDPS of every trace it has simulated in this
	// search, with the span of ratios that regenerate that trace: after a
	// dozen halvings the ratio moves less than the gap between two of a
	// replica's key-frame decisions, so most replicas already know their
	// result. Only the others are generated and simulated; summing every
	// replica in index order keeps the mean bit-identical to simulating
	// all of them.
	seen := make([][]spanFDPS, Replicas)
	vals := make([]float64, Replicas)
	var miss []int
	measureRatio := func(ratio float64) float64 {
		q := p
		q.LongRatio = ratio
		miss = miss[:0]
		for i := range vals {
			if v, ok := lookupSpan(seen[i], ratio); ok {
				vals[i] = v
			} else {
				miss = append(miss, i)
			}
		}
		fresh := par.MapLocals(probes, len(miss), func(pr *probe, j int) spanFDPS {
			return pr.replica(&q, frames, seed+int64(miss[j]))
		})
		calibSims.Add(int64(len(miss)))
		for j, i := range miss {
			seen[i] = append(seen[i], fresh[j])
			vals[i] = fresh[j].fdps
		}
		return replicaMean(vals)
	}
	if measureRatio(maxRatio) >= target {
		ratio := bisect(measureRatio, target, 0.002, maxRatio)
		return calibration{ratio: ratio, scale: 1}
	}
	// Rate ceiling insufficient: scale costs on top. Every step scales
	// every trace, so each replica is simulated at each step.
	q := p
	q.LongRatio = maxRatio
	bases := make([]*workload.Trace, Replicas)
	for i := range bases {
		bases[i] = q.Generate(frames, seed+int64(i))
	}
	measureScale := func(s float64) float64 {
		vals := par.MapLocals(probes, len(bases), func(pr *probe, i int) float64 {
			return pr.run(bases[i].ScaleInto(&pr.tr, s)).FDPS()
		})
		calibSims.Add(int64(len(bases)))
		return replicaMean(vals)
	}
	scale := bisect(measureScale, target, 1.0, 6.0)
	return calibration{ratio: maxRatio, scale: scale}
}

// calibrating runs fn, one calibration search, under the pprof label
// phase=exp.calibrate. It is set once per search, never per probe, and the
// par workers the search starts inherit it, so `go tool pprof -tags`
// splits a profile into calibration and rendering. A label reads no clock
// and changes no output.
func calibrating(fn func()) {
	pprof.Do(context.TODO(), pprof.Labels("phase", "exp.calibrate"), func(context.Context) { fn() })
}

// model is one worker's recurrence for a config, with recurrenceOracle's
// checker beside it when a test set one.
type model struct {
	rec   *vsyncrec.Model
	check func(tr *workload.Trace, got *vsyncrec.Result) // recurrenceOracle's checker, or nil
}

// recurrenceOracle, when a test sets it, builds a checker beside every
// recurrence a calibration search or an FDPS mean wires; the model hands
// it each trace it runs with the recurrence's result, which the checker
// compares with the event simulator's. It is nil outside tests.
var recurrenceOracle func(cfg sim.Config) func(tr *workload.Trace, got *vsyncrec.Result)

// newModel wires the recurrence for cfg's runs.
func newModel(cfg sim.Config) model {
	m := model{rec: recurrence(cfg)}
	if recurrenceOracle != nil {
		m.check = recurrenceOracle(cfg)
	}
	return m
}

// run runs tr on the model's recurrence. The result is the model's own
// and the next run overwrites it.
func (m model) run(tr *workload.Trace) *vsyncrec.Result {
	res := m.rec.Run(tr)
	if m.check != nil {
		m.check(tr, res)
	}
	return res
}

// probe is one worker's scratch for a calibration search: the VSync
// recurrence for the search's config, the trace buffer each probe fills,
// and the stream that fills it. Every probe rewinds all three, so which
// worker runs which replica never shows in a result. A search reads only
// jank edges, and the recurrence reproduces the event simulator's exactly
// on every config VSyncConfig builds, so probing it moves no calibration
// bit (DESIGN.md §4).
type probe struct {
	model
	tr workload.Trace
	g  *dist.RNG
}

// newProbe wires a probe for a VSync search on the device and queue size.
func newProbe(dev scenarios.Device, buffers int) *probe {
	calibProbes.Add(1)
	return &probe{model: newModel(VSyncConfig(dev, buffers)), g: dist.New(Seed)}
}

// replica generates the profile's trace for seed into the probe's buffer
// and runs it: one replica of a ratio probe.
func (pr *probe) replica(q *workload.Profile, frames int, seed int64) spanFDPS {
	span := q.GenerateInto(&pr.tr, pr.g, frames, seed)
	return spanFDPS{span: span, fdps: pr.run(&pr.tr).FDPS()}
}

// recurrence wires the exact recurrence for cfg's runs: vsyncrec's VSync
// model or its D-VSync model. Nothing falls back to the event simulator,
// so a config outside both domains panics rather than run on other
// semantics. A D-VSync caller also checks its frames (decoupled).
func recurrence(cfg sim.Config) *vsyncrec.Model {
	rc := vsyncrec.Config{RefreshHz: cfg.Panel.RefreshHz, Buffers: cfg.Buffers, AppOffset: cfg.AppOffset}
	switch {
	case inVSyncDomain(cfg):
		rc.Depth = cfg.VSyncPipelineDepth
	case inDVSyncDomain(cfg):
		rc.DVSync, rc.PreRenderLimit = true, cfg.PreRenderLimit
	default:
		panic("exp: config outside both recurrences' domains")
	}
	return vsyncrec.New(rc)
}

// inVSyncDomain reports whether the VSync recurrence reproduces cfg's runs
// exactly (vsyncrec's package comment has the domain). Observers and the
// D-VSync-only fields change no VSync run.
func inVSyncDomain(cfg sim.Config) bool {
	return cfg.Mode == sim.ModeVSync && plainPipeline(cfg)
}

// inDVSyncDomain reports whether the D-VSync recurrence reproduces cfg's
// runs exactly, given frames that all ride the decoupled channel
// (decoupled): the controller stays on, and neither a runtime switch, the
// fallback supervisor nor FPE backoff ever changes the channel or the
// limit. Observers, the DTV settings and PerFrameOverhead change no
// D-VSync schedule: the DTV only stamps ContentTime and DTimestamp.
func inDVSyncDomain(cfg sim.Config) bool {
	return cfg.Mode == sim.ModeDVSync && !cfg.DisableDVSync && cfg.RuntimeSwitch == nil &&
		!cfg.EnableFallback && cfg.FPEOverloadAfter == 0 && plainPipeline(cfg)
}

// plainPipeline reports whether cfg has what both recurrences model: a
// panel on its nominal grid, no faults, no LTPO, the FIFO consumer, the
// trace-derived horizon and no content sampling.
func plainPipeline(cfg sim.Config) bool {
	pc := cfg.Panel
	return pc.JitterStdDev == 0 && pc.PeriodSkewPPM == 0 && pc.EdgeDelay == nil && pc.EdgeMiss == nil &&
		(cfg.Faults == nil || !cfg.Faults.Enabled()) && cfg.LTPOPolicy == nil &&
		!cfg.DropStaleBuffers && cfg.MaxSimTime == 0 && cfg.ContentSample == nil
}

// decoupled reports whether every frame of tr rides the decoupled channel
// under a D-VSync cfg: a deterministic animation frame always does, an
// interactive one only with a predictor registered.
func decoupled(cfg sim.Config, tr *workload.Trace) bool {
	for _, c := range tr.Costs {
		if c.Class != workload.Deterministic && (c.Class != workload.Interactive || cfg.Predictor == nil) {
			return false
		}
	}
	return true
}

// spanFDPS is one simulated replica trace during a calibration search: its
// VSync FDPS and the ratios that regenerate it.
type spanFDPS struct {
	span workload.RatioSpan
	fdps float64
}

// lookupSpan returns the FDPS of the remembered trace that ratio
// regenerates, if any.
func lookupSpan(seen []spanFDPS, ratio float64) (float64, bool) {
	for _, s := range seen {
		if s.span.Contains(ratio) {
			return s.fdps, true
		}
	}
	return 0, false
}

// replicaMean is the mean of the replica FDPS values, summed in index
// order.
func replicaMean(vals []float64) float64 {
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / Replicas
}

func (c calibration) trace(p workload.Profile, frames int, seed int64) *workload.Trace {
	p.LongRatio = c.ratio
	tr := p.Generate(frames, seed)
	if c.scale != 1 {
		tr = tr.Scale(c.scale)
	}
	return tr
}

// CalibrateFDPS calibrates the profile to the target baseline and returns
// the seed trace.
func CalibrateFDPS(p workload.Profile, frames int, dev scenarios.Device, buffers int,
	target float64, seed int64) *workload.Trace {
	return calibrateParams(p, frames, dev, buffers, target, seed).trace(p, frames, seed)
}

// CalibrateReplicas calibrates the profile and returns Replicas independent
// traces drawn from the tuned parameters (seed, seed+1, …).
func CalibrateReplicas(p workload.Profile, frames int, dev scenarios.Device, buffers int,
	target float64, seed int64) []*workload.Trace {
	c := calibrateParams(p, frames, dev, buffers, target, seed)
	out := make([]*workload.Trace, Replicas)
	for i := range out {
		out[i] = c.trace(p, frames, seed+int64(i))
	}
	return out
}

// avgFDPS measures mean FDPS across replica traces, each run on the exact
// recurrence for cfg, so the mean is the event simulator's to the bit
// (DESIGN.md §4). Like calibration, it has no event-simulator path: a
// config or frame outside both recurrences' domains panics. Replicas fan
// out through par.MapLocal, one recurrence per worker, and are summed
// serially in index order, so the mean is the same at any worker count.
func avgFDPS(traces []*workload.Trace, cfg sim.Config) float64 {
	if cfg.Mode == sim.ModeDVSync {
		for _, tr := range traces {
			if !decoupled(cfg, tr) {
				panic("exp: a frame off the decoupled channel, outside the D-VSync recurrence's domain")
			}
		}
	}
	vals := par.MapLocal(len(traces),
		func() model { return newModel(cfg) },
		func(m model, i int) float64 { return m.run(traces[i]).FDPS() })
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(traces))
}

// bisect finds x in [lo, hi] where measure(x) ≈ target (measure monotone
// non-decreasing up to simulation noise).
func bisect(measure func(float64) float64, target, lo, hi float64) float64 {
	for i := 0; i < 26; i++ {
		mid := (lo + hi) / 2
		if measure(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Average returns the arithmetic mean.
func Average(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Reduction returns the percentage reduction from a to b.
func Reduction(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return 100 * (a - b) / a
}
