// Package health implements the windowed health monitor that supervises a
// D-VSync run: it watches frame drops per second, DTV calibration error and
// pipeline progress over a sliding window, and decides — with hysteresis —
// when the system should take the §4.5 runtime switch back to conventional
// VSync, and when it is safe to recover. The monitor is pure decision
// logic: the sim feeds it observations and acts on its verdict.
package health

import (
	"fmt"
	"math"

	"dvsync/internal/simtime"
)

// Reason names the check that tripped the monitor.
type Reason int

// Trip reasons.
const (
	// ReasonNone means healthy (also reported on recovery transitions).
	ReasonNone Reason = iota
	// ReasonFDPS means windowed frame drops per second exceeded MaxFDPS.
	ReasonFDPS
	// ReasonCalibration means the windowed mean DTV calibration error
	// exceeded MaxCalibErrMs.
	ReasonCalibration
	// ReasonStall means the pipeline made no progress for StallTimeout
	// while frames were in flight.
	ReasonStall
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonFDPS:
		return "fdps"
	case ReasonCalibration:
		return "calibration"
	case ReasonStall:
		return "stall"
	}
	return fmt.Sprintf("reason(%d)", int(r))
}

// Config tunes the monitor.
type Config struct {
	// Window is the sliding evaluation window; zero defaults to 500 ms.
	Window simtime.Duration
	// MaxFDPS trips the monitor when frame drops per second measured over
	// the window exceed it. It is the primary fallback threshold and must
	// be positive: a zero threshold would trip on the first jank of any
	// workload and flap forever.
	MaxFDPS float64
	// MaxCalibErrMs trips when the windowed mean |present − D-Timestamp|
	// exceeds it (ms). Zero disables the check.
	MaxCalibErrMs float64
	// StallTimeout trips when no buffer has been queued for this long
	// while frames are in flight. Zero disables the check.
	StallTimeout simtime.Duration
	// RecoverAfter is how long every check must stay clean before a
	// tripped monitor recovers (the hysteresis rule); zero defaults to
	// twice the window.
	RecoverAfter simtime.Duration
}

// Validate reports configuration errors, including the zero fallback
// threshold and NaN thresholds, which no comparison would ever trip.
func (c Config) Validate() error {
	switch {
	case math.IsNaN(c.MaxFDPS) || c.MaxFDPS <= 0:
		return fmt.Errorf("health: fallback FDPS threshold must be positive, got %v", c.MaxFDPS)
	case math.IsNaN(c.MaxCalibErrMs) || c.MaxCalibErrMs < 0:
		return fmt.Errorf("health: calibration-error bound must be non-negative, got %v", c.MaxCalibErrMs)
	case c.Window < 0:
		return fmt.Errorf("health: negative window %v", c.Window)
	case c.StallTimeout < 0:
		return fmt.Errorf("health: negative stall timeout %v", c.StallTimeout)
	case c.RecoverAfter < 0:
		return fmt.Errorf("health: negative recovery hysteresis %v", c.RecoverAfter)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Window == 0 {
		c.Window = 500 * simtime.Millisecond
	}
	if c.RecoverAfter == 0 {
		c.RecoverAfter = 2 * c.Window
	}
	return c
}

type errSample struct {
	at    simtime.Time
	errMs float64
}

// Monitor accumulates observations and evaluates the trip/recover decision.
// It is single-threaded like the rest of the simulation.
type Monitor struct {
	cfg Config

	janks []simtime.Time
	errs  []errSample

	lastProgress simtime.Time
	haveProgress bool
	watchStart   simtime.Time
	haveWatch    bool

	tripped      bool
	healthySince simtime.Time
	haveHealthy  bool
	lastReason   Reason

	trips, recoveries int
}

// NewMonitor builds a monitor. Invalid configs panic; call Config.Validate
// first when the config is external input.
func NewMonitor(cfg Config) *Monitor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Monitor{cfg: cfg.withDefaults()}
}

// Reset clears every window, watchdog reference and counter, returning the
// monitor to its as-constructed condition (the accumulated sample slices
// keep their capacity for the next run).
func (m *Monitor) Reset() {
	m.janks = m.janks[:0]
	m.errs = m.errs[:0]
	m.lastProgress = 0
	m.haveProgress = false
	m.watchStart = 0
	m.haveWatch = false
	m.tripped = false
	m.healthySince = 0
	m.haveHealthy = false
	m.lastReason = ReasonNone
	m.trips = 0
	m.recoveries = 0
}

// ObserveJank records a repeated-frame edge.
func (m *Monitor) ObserveJank(at simtime.Time) { m.janks = append(m.janks, at) }

// ObserveCalibError records one frame's |present − D-Timestamp| in ms.
func (m *Monitor) ObserveCalibError(at simtime.Time, errMs float64) {
	m.errs = append(m.errs, errSample{at: at, errMs: errMs})
}

// ObserveProgress records pipeline progress (a buffer entering the queue).
func (m *Monitor) ObserveProgress(at simtime.Time) {
	m.lastProgress = at
	m.haveProgress = true
}

func (m *Monitor) prune(now simtime.Time) {
	cut := now.Add(-m.cfg.Window)
	i := 0
	for i < len(m.janks) && m.janks[i] < cut {
		i++
	}
	m.janks = m.janks[i:]
	i = 0
	for i < len(m.errs) && m.errs[i].at < cut {
		i++
	}
	m.errs = m.errs[i:]
}

// WindowFDPS returns frame drops per second over the (possibly truncated,
// at stream start) window ending at now.
func (m *Monitor) WindowFDPS(now simtime.Time) float64 {
	m.prune(now)
	win := m.cfg.Window
	if simtime.Duration(now) < win {
		win = simtime.Duration(now)
	}
	if win <= 0 {
		return 0
	}
	return float64(len(m.janks)) / win.Seconds()
}

func (m *Monitor) violation(now simtime.Time, pipelineBusy bool) Reason {
	if m.WindowFDPS(now) > m.cfg.MaxFDPS {
		return ReasonFDPS
	}
	if m.cfg.MaxCalibErrMs > 0 && len(m.errs) > 0 {
		sum := 0.0
		for _, e := range m.errs {
			sum += e.errMs
		}
		if sum/float64(len(m.errs)) > m.cfg.MaxCalibErrMs {
			return ReasonCalibration
		}
	}
	if m.cfg.StallTimeout > 0 && pipelineBusy {
		// Measure from the last progress event, or — when nothing has ever
		// been queued — from the first evaluation. Without the fallback a
		// pipeline that wedges before its very first buffer reaches the
		// queue is invisible to the stall check: no progress means no
		// reference point, and no latched frame means no janks either.
		ref, ok := m.lastProgress, m.haveProgress
		if !ok {
			ref, ok = m.watchStart, m.haveWatch
		}
		if ok && now.Sub(ref) > m.cfg.StallTimeout {
			return ReasonStall
		}
	}
	return ReasonNone
}

// Evaluate updates the trip state at now and reports whether the monitor is
// tripped. pipelineBusy tells the stall watchdog whether frames are in
// flight (an idle pipeline is healthy, not stalled). Hysteresis: the
// monitor trips on the first violation and recovers only after every check
// has stayed clean for RecoverAfter.
func (m *Monitor) Evaluate(now simtime.Time, pipelineBusy bool) bool {
	if !m.haveWatch {
		m.haveWatch = true
		m.watchStart = now
	}
	r := m.violation(now, pipelineBusy)
	if !m.tripped {
		if r != ReasonNone {
			m.tripped = true
			m.trips++
			m.lastReason = r
			m.haveHealthy = false
		}
		return m.tripped
	}
	if r != ReasonNone {
		m.lastReason = r
		m.haveHealthy = false
		return true
	}
	if !m.haveHealthy {
		m.haveHealthy = true
		m.healthySince = now
	}
	if now.Sub(m.healthySince) >= m.cfg.RecoverAfter {
		m.tripped = false
		m.recoveries++
		m.haveHealthy = false
		m.lastReason = ReasonNone
	}
	return m.tripped
}

// Tripped reports the current state without re-evaluating.
func (m *Monitor) Tripped() bool { return m.tripped }

// LastReason returns the check behind the most recent trip (ReasonNone
// after a recovery).
func (m *Monitor) LastReason() Reason { return m.lastReason }

// Trips returns how many times the monitor has tripped.
func (m *Monitor) Trips() int { return m.trips }

// Recoveries returns how many times the monitor has recovered.
func (m *Monitor) Recoveries() int { return m.recoveries }
