// Package fault implements the deterministic fault-injection layer: seeded
// perturbations of the simulation delivered through well-defined hooks
// instead of ad-hoc edits. Each fault class is a list of episode windows
// with a class-specific severity; all stochastic decisions are drawn from
// per-class streams split off one seed, so a faulted run replays
// bit-for-bit — perturbation testing is only trustworthy when the
// perturbations themselves are reproducible.
//
// Fault classes and their severity semantics:
//
//   - Stalls: render/UI stall episodes (GPU hang, thermal throttling) —
//     stage costs of frames started inside the window are multiplied by
//     (1 + Severity).
//   - VSyncJitter: extra panel-edge jitter — Severity is the gaussian
//     standard deviation in milliseconds (clamped to ±3σ).
//   - MissedVSync: the panel skips refreshes — Severity is the per-edge
//     miss probability in [0, 1].
//   - ClockDrift: the software VSync distributor drifts behind the panel —
//     Severity is the lag rate in parts per million; signal delay grows as
//     (t − Start) × Severity / 1e6 inside the window.
//   - AllocFail: transient buffer-allocation failure — Severity is the
//     per-dequeue failure probability in [0, 1].
//   - InputDrop: digitizer dropout — Severity is the per-sample drop
//     probability in [0, 1].
//   - InputBurst: digitizer batching — samples inside the window are held
//     and delivered together; Severity is the batch interval in
//     milliseconds.
package fault

import (
	"fmt"
	"math"
	"sort"

	"dvsync/internal/dist"
	"dvsync/internal/simtime"
)

// Episode is one fault window [Start, End) with a class-specific severity.
type Episode struct {
	// Start/End bound the window; End is exclusive.
	Start, End simtime.Time
	// Severity is the class-specific magnitude (see package comment).
	Severity float64
}

// Active reports whether t falls inside the window.
func (e Episode) Active(t simtime.Time) bool { return t >= e.Start && t < e.End }

// Config enumerates the fault episodes of one run. The zero value injects
// nothing.
type Config struct {
	// Seed seeds the per-class random streams for probabilistic faults.
	Seed int64
	// Stalls are render/UI stall episodes (cost multipliers).
	Stalls []Episode
	// VSyncJitter perturbs hardware edges (stddev in ms).
	VSyncJitter []Episode
	// MissedVSync makes the panel skip refreshes (probability).
	MissedVSync []Episode
	// ClockDrift lags software VSync signals behind the panel (ppm).
	ClockDrift []Episode
	// AllocFail fails buffer dequeues transiently (probability).
	AllocFail []Episode
	// InputDrop drops digitizer samples (probability).
	InputDrop []Episode
	// InputBurst batches digitizer delivery (interval in ms).
	InputBurst []Episode
}

// class pairs a fault class with its episodes for validation and iteration
// in a fixed order (never a map: iteration order is part of determinism).
type class struct {
	name        string
	episodes    []Episode
	probability bool // severity must lie in [0, 1]
}

func (c *Config) byClass() []class {
	return []class{
		{"stall", c.Stalls, false},
		{"vsync-jitter", c.VSyncJitter, false},
		{"missed-vsync", c.MissedVSync, true},
		{"clock-drift", c.ClockDrift, false},
		{"alloc-fail", c.AllocFail, true},
		{"input-drop", c.InputDrop, true},
		{"input-burst", c.InputBurst, false},
	}
}

// EpisodeRef identifies one configured episode: its class name, its index
// within the class, and the window itself.
type EpisodeRef struct {
	// Class is the fault class name (byClass vocabulary: "stall",
	// "vsync-jitter", "missed-vsync", "clock-drift", "alloc-fail",
	// "input-drop", "input-burst").
	Class string
	// Index is the episode's position within its class.
	Index int
	// Episode is the window.
	Episode Episode
}

// Episodes lists every configured episode in fixed class order (the
// byClass order), episodes within a class in declaration order — the
// deterministic walk the simulator precomputes schema-v3 fault markers
// from.
func (c *Config) Episodes() []EpisodeRef {
	var out []EpisodeRef
	for _, cl := range c.byClass() {
		for i, e := range cl.episodes {
			out = append(out, EpisodeRef{Class: cl.name, Index: i, Episode: e})
		}
	}
	return out
}

// Enabled reports whether any episode is configured.
func (c *Config) Enabled() bool {
	for _, cl := range c.byClass() {
		if len(cl.episodes) > 0 {
			return true
		}
	}
	return false
}

// Validate reports configuration errors: inverted or overlapping windows,
// negative severities, and out-of-range probabilities.
func (c *Config) Validate() error {
	for _, cl := range c.byClass() {
		for _, e := range cl.episodes {
			switch {
			case e.End <= e.Start:
				return fmt.Errorf("fault: %s episode window [%v, %v) is empty or inverted",
					cl.name, e.Start, e.End)
			case math.IsNaN(e.Severity) || math.IsInf(e.Severity, 0):
				return fmt.Errorf("fault: %s episode at %v has non-finite severity %v",
					cl.name, e.Start, e.Severity)
			case e.Severity < 0:
				return fmt.Errorf("fault: %s episode at %v has negative severity %v",
					cl.name, e.Start, e.Severity)
			case cl.probability && e.Severity > 1:
				return fmt.Errorf("fault: %s episode at %v has probability %v > 1",
					cl.name, e.Start, e.Severity)
			}
		}
		sorted := append([]Episode(nil), cl.episodes...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
		for i := 1; i < len(sorted); i++ {
			if sorted[i].Start < sorted[i-1].End {
				return fmt.Errorf("fault: overlapping %s episodes at %v and %v",
					cl.name, sorted[i-1].Start, sorted[i].Start)
			}
		}
	}
	return nil
}

// Counters aggregates the faults actually injected during a run.
type Counters struct {
	// StalledFrames counts frame starts that received a cost multiplier.
	StalledFrames int
	// JitteredEdges counts panel edges perturbed by jitter episodes.
	JitteredEdges int
	// MissedEdges counts refreshes the panel skipped.
	MissedEdges int
	// DriftedSignals counts software signals delivered late by drift.
	DriftedSignals int
	// AllocFailures counts dequeues failed despite free buffers.
	AllocFailures int
	// DroppedSamples counts digitizer samples suppressed.
	DroppedSamples int
	// DelayedSamples counts digitizer samples batched to a later delivery.
	DelayedSamples int
}

// Injector evaluates a Config against the simulation's hook points. All
// methods are deterministic in the call sequence: per-class random streams
// are split off the seed, so one class's draws never perturb another's.
type Injector struct {
	cfg Config

	jitterRNG *dist.RNG
	missRNG   *dist.RNG
	allocRNG  *dist.RNG
	dropRNG   *dist.RNG

	n Counters
}

// Reset rewinds every per-class stream to the start of its split seed and
// clears the tallies, so a reused injector replays exactly the draws a
// fresh NewInjector(cfg) would. The split lineage is fixed at construction;
// Reseed only rewinds each child stream in place.
func (in *Injector) Reset() {
	in.jitterRNG.Reseed(in.jitterRNG.Seed())
	in.missRNG.Reseed(in.missRNG.Seed())
	in.allocRNG.Reseed(in.allocRNG.Seed())
	in.dropRNG.Reseed(in.dropRNG.Seed())
	in.n = Counters{}
}

// NewInjector builds an injector. Invalid configs panic; run Validate (or
// sim.Validate, which includes it) first when the config is external input.
func NewInjector(cfg Config) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	root := dist.New(cfg.Seed)
	return &Injector{
		cfg:       cfg,
		jitterRNG: root.Split("fault.jitter"),
		missRNG:   root.Split("fault.miss"),
		allocRNG:  root.Split("fault.alloc"),
		dropRNG:   root.Split("fault.drop"),
	}
}

// Counters returns a copy of the injected-fault tallies.
func (in *Injector) Counters() Counters { return in.n }

func activeAt(eps []Episode, t simtime.Time) (Episode, bool) {
	for _, e := range eps {
		if e.Active(t) {
			return e, true
		}
	}
	return Episode{}, false
}

// CostScale is the pipeline hook: the stage-cost multiplier for a frame
// started at now. Outside stall windows it is 1.
func (in *Injector) CostScale(now simtime.Time) float64 {
	e, ok := activeAt(in.cfg.Stalls, now)
	if !ok {
		return 1
	}
	in.n.StalledFrames++
	return 1 + e.Severity
}

// EdgeDelay is the panel hook: extra perturbation of the edge nominally
// scheduled at nominal. Jitter episodes draw a zero-mean gaussian with the
// episode's stddev (ms), clamped to ±3σ.
func (in *Injector) EdgeDelay(nominal simtime.Time) simtime.Duration {
	e, ok := activeAt(in.cfg.VSyncJitter, nominal)
	if !ok || e.Severity == 0 {
		return 0
	}
	sigma := simtime.Duration(e.Severity * float64(simtime.Millisecond))
	j := simtime.Duration(float64(sigma) * in.jitterRNG.NormFloat64())
	in.n.JitteredEdges++
	return simtime.Clamp(j, -3*sigma, 3*sigma)
}

// EdgeMiss is the panel hook: whether the edge firing at now is skipped.
func (in *Injector) EdgeMiss(now simtime.Time, seq uint64) bool {
	e, ok := activeAt(in.cfg.MissedVSync, now)
	if !ok || e.Severity == 0 {
		return false
	}
	if in.missRNG.Float64() >= e.Severity {
		return false
	}
	in.n.MissedEdges++
	return true
}

// SignalDelay is the distributor hook: how far behind the hardware edge at
// `at` the software signals run. Drift accumulates linearly from the window
// start at the episode's ppm rate and resets when the window closes (the
// distributor resynchronises).
func (in *Injector) SignalDelay(at simtime.Time) simtime.Duration {
	e, ok := activeAt(in.cfg.ClockDrift, at)
	if !ok || e.Severity == 0 {
		return 0
	}
	d := simtime.Duration(float64(at.Sub(e.Start)) * e.Severity / 1e6)
	if d > 0 {
		in.n.DriftedSignals++
	}
	return d
}

// AllocFails is the buffer-queue hook: whether a dequeue attempt at now
// fails transiently despite free buffers.
func (in *Injector) AllocFails(now simtime.Time) bool {
	e, ok := activeAt(in.cfg.AllocFail, now)
	if !ok || e.Severity == 0 {
		return false
	}
	if in.allocRNG.Float64() >= e.Severity {
		return false
	}
	in.n.AllocFailures++
	return true
}

// DropSample implements input.Perturber: whether the digitizer report at
// `at` is lost.
func (in *Injector) DropSample(at simtime.Time) bool {
	e, ok := activeAt(in.cfg.InputDrop, at)
	if !ok || e.Severity == 0 {
		return false
	}
	if in.dropRNG.Float64() >= e.Severity {
		return false
	}
	in.n.DroppedSamples++
	return true
}

// BurstDelivery implements input.Perturber: the delayed delivery time of a
// sample taken at `at`, batched to the end of its burst interval. ok is
// false outside burst windows.
func (in *Injector) BurstDelivery(at simtime.Time) (simtime.Time, bool) {
	e, ok := activeAt(in.cfg.InputBurst, at)
	if !ok || e.Severity == 0 {
		return at, false
	}
	interval := simtime.Duration(e.Severity * float64(simtime.Millisecond))
	if interval <= 0 {
		return at, false
	}
	// Deliver at the end of the interval containing `at`, never past the
	// window: ceil((at − Start) / interval) intervals after Start.
	k := int64(at.Sub(e.Start))/int64(interval) + 1
	delivery := e.Start.Add(simtime.Duration(k) * interval)
	if delivery > e.End {
		delivery = e.End
	}
	if delivery != at {
		in.n.DelayedSamples++
	}
	return delivery, true
}

// Classes lists the severity-sweepable fault classes accepted by Scenario,
// in presentation order.
func Classes() []string {
	return []string{"stall", "jitter", "missed-vsync", "drift", "alloc", "input-drop", "input-burst"}
}

// Scenario builds a single-class Config at a normalised severity in [0, 1]
// over the window [start, end) — the shared severity mapping used by
// `dvbench -exp faults` and `dvsim -fault`, so both tools stress the same
// operating points:
//
//	stall        cost multiplier 1 + 2·s
//	jitter       edge jitter stddev 2.5·s ms
//	missed-vsync per-edge miss probability 0.35·s
//	drift        distributor lag rate 3000·s ppm
//	alloc        per-dequeue failure probability 0.5·s
//	input-drop   per-sample drop probability 0.8·s
//	input-burst  batch interval 40·s ms
func Scenario(cls string, severity float64, start, end simtime.Time, seed int64) (*Config, error) {
	if !(severity >= 0 && severity <= 1) { // NaN fails both comparisons
		return nil, fmt.Errorf("fault: scenario severity %v outside [0, 1]", severity)
	}
	if end <= start {
		return nil, fmt.Errorf("fault: scenario window [%v, %v) is empty or inverted", start, end)
	}
	cfg := &Config{Seed: seed}
	ep := func(s float64) []Episode {
		if s == 0 {
			return nil
		}
		return []Episode{{Start: start, End: end, Severity: s}}
	}
	switch cls {
	case "stall":
		cfg.Stalls = ep(2 * severity)
	case "jitter":
		cfg.VSyncJitter = ep(2.5 * severity)
	case "missed-vsync":
		cfg.MissedVSync = ep(0.35 * severity)
	case "drift":
		cfg.ClockDrift = ep(3000 * severity)
	case "alloc":
		cfg.AllocFail = ep(0.5 * severity)
	case "input-drop":
		cfg.InputDrop = ep(0.8 * severity)
	case "input-burst":
		cfg.InputBurst = ep(40 * severity)
	default:
		return nil, fmt.Errorf("fault: unknown class %q (want one of %v)", cls, Classes())
	}
	return cfg, nil
}
