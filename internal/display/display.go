// Package display models the smartphone screen panel: the HW-VSync
// generator, the latch/present cycle, and variable refresh rates for LTPO
// panels (§5.3).
//
// The panel is the consumer side of the rendering architecture. Before
// every physical refresh it emits a hardware VSync edge; software layers
// subscribe to these edges (directly or through offset software signals, see
// package signal). The panel itself knows nothing about buffers — the
// simulation wires an OnEdge listener that performs the latch.
package display

import (
	"fmt"

	"dvsync/internal/dist"
	"dvsync/internal/event"
	"dvsync/internal/simtime"
)

// EdgeListener receives hardware VSync edges. seq is the edge index since
// panel start; period is the nominal refresh period in force at this edge.
type EdgeListener func(now simtime.Time, seq uint64, period simtime.Duration)

// Config describes a panel.
type Config struct {
	// Name labels the device, e.g. "Mate 60 Pro".
	Name string
	// RefreshHz is the initial refresh rate.
	RefreshHz int
	// Width, Height are panel dimensions in pixels.
	Width, Height int
	// JitterStdDev perturbs each edge by a zero-mean gaussian with this
	// standard deviation, emulating oscillator noise. Zero disables jitter.
	// Real panels exhibit tens of microseconds of jitter; this is what the
	// DTV's periodic calibration (§5.1) exists to absorb.
	JitterStdDev simtime.Duration
	// JitterSeed seeds the jitter stream.
	JitterSeed int64
	// PeriodSkewPPM offsets the panel's true period from nominal in parts
	// per million, emulating oscillator inaccuracy. The DTV's period
	// calibration exists to learn this.
	PeriodSkewPPM float64
	// EdgeDelay, when set, perturbs each edge nominally scheduled at the
	// given instant by an extra offset — the fault-injection hook for
	// windowed jitter episodes (internal/fault). It may return negative
	// offsets; the panel still clamps edges to land strictly after the
	// previous one.
	EdgeDelay func(nominal simtime.Time) simtime.Duration
	// EdgeMiss, when set, is consulted as each edge fires; returning true
	// makes the panel skip the refresh entirely — no latch, no software
	// VSync fan-out — while the timing grid continues. OnMissedEdge
	// listeners observe the skip.
	EdgeMiss func(now simtime.Time, seq uint64) bool
}

// Panel is the screen model.
type Panel struct {
	cfg        Config
	engine     *event.Engine
	period     simtime.Duration // nominal period software queries
	truePeriod simtime.Duration // actual oscillator period (skewed)
	listeners  []EdgeListener
	onMiss     []EdgeListener
	onRate     []func(hz int)
	rng        *dist.RNG
	seq        uint64
	running    bool
	nextAt     simtime.Time // true (jitter-free) time of next edge
	lastEdge   simtime.Time
	missed     uint64

	// edgeFn is the one edge handler, bound at construction; schedule
	// reuses it so the per-edge path allocates nothing.
	edgeFn event.Handler
}

func skewed(nominal simtime.Duration, ppm float64) simtime.Duration {
	return simtime.Duration(float64(nominal) * (1 + ppm/1e6))
}

// NewPanel creates a stopped panel bound to the engine.
func NewPanel(e *event.Engine, cfg Config) *Panel {
	if cfg.RefreshHz <= 0 {
		panic(fmt.Sprintf("display: invalid refresh rate %d", cfg.RefreshHz))
	}
	if cfg.Width <= 0 || cfg.Height <= 0 {
		cfg.Width, cfg.Height = 1080, 2340
	}
	nominal := simtime.PeriodForHz(cfg.RefreshHz)
	p := &Panel{
		cfg:        cfg,
		engine:     e,
		period:     nominal,
		truePeriod: skewed(nominal, cfg.PeriodSkewPPM),
		rng:        dist.New(cfg.JitterSeed ^ 0x5ee4),
	}
	p.edgeFn = p.edge
	return p
}

// OnEdge registers a listener for hardware VSync edges. Listeners fire in
// registration order at PriorityHardware.
func (p *Panel) OnEdge(l EdgeListener) { p.listeners = append(p.listeners, l) }

// OnMissedEdge registers a listener for refreshes the panel skipped under
// an EdgeMiss fault. Regular OnEdge listeners do not fire for missed edges.
func (p *Panel) OnMissedEdge(l EdgeListener) { p.onMiss = append(p.onMiss, l) }

// Missed returns how many refreshes were skipped by edge faults.
func (p *Panel) Missed() uint64 { return p.missed }

// Start schedules the first edge at the given instant.
func (p *Panel) Start(first simtime.Time) {
	if p.running {
		panic("display: panel already running")
	}
	p.running = true
	p.nextAt = first
	p.schedule(first)
}

//dvlint:hotpath runs once per hardware VSync edge
func (p *Panel) schedule(nominal simtime.Time) {
	at := nominal
	var j simtime.Duration
	if p.cfg.JitterStdDev > 0 && nominal > 0 {
		x := simtime.Duration(float64(p.cfg.JitterStdDev) * p.rng.NormFloat64())
		// Clamp to ±3σ and never before the previous edge.
		j += simtime.Clamp(x, -3*p.cfg.JitterStdDev, 3*p.cfg.JitterStdDev)
	}
	if p.cfg.EdgeDelay != nil && nominal > 0 {
		j += p.cfg.EdgeDelay(nominal)
	}
	if j != 0 {
		at = nominal.Add(j)
		if at <= p.lastEdge {
			at = p.lastEdge + 1
		}
	}
	if at < p.engine.Now() {
		at = p.engine.Now()
	}
	p.engine.At(at, event.PriorityHardware, p.edgeFn)
}

// edge fires one hardware VSync edge and schedules the next. It is the
// single persistent handler behind every schedule call — the panel only
// ever has one pending edge, so no per-edge state needs capturing. The
// panel never stops itself: a run ends by stopping the engine, and the
// edge still pending then is dropped by the engine's Reset.
//
//dvlint:hotpath runs once per hardware VSync edge
func (p *Panel) edge(now simtime.Time) {
	p.lastEdge = now
	seq := p.seq
	p.seq++
	p.nextAt = p.nextAt.Add(p.truePeriod)
	p.schedule(p.nextAt)
	if p.cfg.EdgeMiss != nil && p.cfg.EdgeMiss(now, seq) {
		// Skipped refresh: the grid continues but nothing latches and
		// no software signals derive from this edge.
		p.missed++
		for _, l := range p.onMiss {
			l(now, seq, p.period)
		}
		return
	}
	for _, l := range p.listeners {
		l(now, seq, p.period)
	}
}

// Reset returns the panel to its as-constructed condition: stopped, back at
// the configured nominal rate, jitter stream rewound to the start of its
// seed. Listeners registered at wiring time persist, so a reused panel fans
// out edges identically to a fresh one. The caller guarantees the pending
// edge (if any) is gone with the engine's own reset.
func (p *Panel) Reset() {
	nominal := simtime.PeriodForHz(p.cfg.RefreshHz)
	p.period = nominal
	p.truePeriod = skewed(nominal, p.cfg.PeriodSkewPPM)
	p.rng.Reseed(p.cfg.JitterSeed ^ 0x5ee4)
	p.seq = 0
	p.running = false
	p.nextAt = 0
	p.lastEdge = 0
	p.missed = 0
}

// RefreshHz returns the current refresh rate.
func (p *Panel) RefreshHz() int { return simtime.HzForPeriod(p.period) }

// SetRefreshHz switches the panel refresh rate at the next edge (LTPO).
// The pending edge keeps its old timing; edges after it use the new period.
func (p *Panel) SetRefreshHz(hz int) {
	if hz <= 0 {
		panic(fmt.Sprintf("display: invalid refresh rate %d", hz))
	}
	p.period = simtime.PeriodForHz(hz)
	p.truePeriod = skewed(p.period, p.cfg.PeriodSkewPPM)
	for _, l := range p.onRate {
		l(hz)
	}
}

// OnRateChange registers a listener for SetRefreshHz retargets (the
// telemetry layer's refresh-rate feed). Listeners fire in registration
// order, synchronously inside SetRefreshHz.
func (p *Panel) OnRateChange(l func(hz int)) { p.onRate = append(p.onRate, l) }

// Name returns the configured device name.
func (p *Panel) Name() string { return p.cfg.Name }

// PixelsPerSecond returns width × height × refresh rate — the Figure 3
// rendering-pressure metric.
func (p *Panel) PixelsPerSecond() int64 {
	return int64(p.cfg.Width) * int64(p.cfg.Height) * int64(p.RefreshHz())
}
