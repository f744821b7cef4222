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
	"fmt"
	"sync/atomic"

	"dvsync/internal/par"
	"dvsync/internal/scenarios"
	"dvsync/internal/sim"
	"dvsync/internal/workload"
)

// Seed is the master seed for all synthesised workloads; experiments are
// fully deterministic.
const Seed int64 = 20250330

// VSyncConfig is the conventional-architecture configuration for a device
// and queue size, without a trace — the shape replica loops hand to a
// reusable sim.Runner before swapping traces in.
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

// runnerFor builds a reusable Runner for a traceless experiment config.
// The one-frame placeholder trace only satisfies construction-time
// validation; every run swaps a real trace in through RunTrace.
func runnerFor(cfg sim.Config) *sim.Runner {
	cfg.Trace = placeholderTrace
	return sim.NewRunner(cfg)
}

// placeholderTrace is the shared construction-time stand-in (read-only,
// like all traces, so workers may share it).
var placeholderTrace = func() *workload.Trace {
	p := workload.Profile{Name: "placeholder", ShortMeanMs: 1, UIShare: 0.5,
		Class: workload.Deterministic}
	return p.Generate(1, 1)
}()

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

func calibrateParamsUncached(p workload.Profile, frames int, dev scenarios.Device, buffers int,
	target float64, seed int64) calibration {
	calibSearches.Add(1)
	const maxRatio = 0.30
	// The search matches the *replica mean* — the quantity the experiments
	// report — so the five-run averages land on the measured baselines.
	// Each replica keeps the FDPS of every trace it has simulated in this
	// search, with the span of ratios that regenerate that trace: after a
	// dozen halvings the ratio moves less than the gap between two of a
	// replica's key-frame decisions, so most replicas already know their
	// result. Only the others are generated and fan out through
	// par.MapLocal; summing every replica in index order keeps the mean
	// bit-identical to simulating all of them.
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
		fresh := par.MapLocal(len(miss),
			func() *sim.Runner { return runnerFor(VSyncConfig(dev, buffers)) },
			func(rn *sim.Runner, j int) spanFDPS {
				tr, span := q.GenerateSpan(frames, seed+int64(miss[j]))
				return spanFDPS{span: span, fdps: rn.RunTrace(tr).FDPS()}
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
		vals := par.MapLocal(len(bases),
			func() *sim.Runner { return runnerFor(VSyncConfig(dev, buffers)) },
			func(rn *sim.Runner, i int) float64 {
				return rn.RunTrace(bases[i].Scale(s)).FDPS()
			})
		calibSims.Add(int64(len(bases)))
		return replicaMean(vals)
	}
	scale := bisect(measureScale, target, 1.0, 6.0)
	return calibration{ratio: maxRatio, scale: scale}
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

// avgFDPS measures mean FDPS across replica traces. Replicas fan out
// through par.MapLocal — each worker rewinds one reusable Runner wired for
// the config instead of rebuilding the simulation graph per replica — and
// are summed serially in index order, so the mean matches the legacy
// serial loop exactly at any worker count.
func avgFDPS(traces []*workload.Trace, cfg sim.Config) float64 {
	vals := par.MapLocal(len(traces),
		func() *sim.Runner { return runnerFor(cfg) },
		func(rn *sim.Runner, i int) float64 {
			return rn.RunTrace(traces[i]).FDPS()
		})
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
