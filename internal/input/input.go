// Package input models the touch digitizer: timestamped input events and a
// gesture synthesiser producing the kinematics of the interactions the
// paper evaluates — swipes, flings, and two-finger pinch zooming (§4.6,
// §6.5) — as continuous trajectories sampleable at any instant.
package input

import (
	"fmt"
	"math"

	"dvsync/internal/simtime"
)

// Sample is one digitizer report.
type Sample struct {
	// At is the report timestamp.
	At simtime.Time
	// Value is the tracked quantity: a y-coordinate in pixels for swipes,
	// the inter-fingertip distance for pinch zooming.
	Value float64
	// Down reports whether the fingertip is on the glass.
	Down bool
}

// Trajectory is a continuous input path: the ground truth a predictor is
// judged against.
type Trajectory interface {
	// Value returns the input quantity at time t.
	Value(t simtime.Time) float64
	// Down reports whether the fingertip touches the screen at t.
	Down(t simtime.Time) bool
	// End returns the instant the gesture completes.
	End() simtime.Time
}

// Digitizer samples a trajectory at a fixed report rate, like a touch
// controller scanning at 120 Hz.
type Digitizer struct {
	// RateHz is the report rate.
	RateHz int
}

// Samples returns digitizer reports covering [0, traj.End()].
func (d Digitizer) Samples(traj Trajectory) []Sample {
	if d.RateHz <= 0 {
		panic(fmt.Sprintf("input: invalid digitizer rate %d", d.RateHz))
	}
	period := simtime.PeriodForHz(d.RateHz)
	var out []Sample
	for t := simtime.Time(0); t <= traj.End(); t = t.Add(period) {
		out = append(out, Sample{At: t, Value: traj.Value(t), Down: traj.Down(t)})
	}
	return out
}

// Perturber decides per-sample delivery faults. internal/fault's Injector
// satisfies it; the indirection keeps this package dependency-free.
type Perturber interface {
	// DropSample reports whether the report at `at` is lost entirely.
	DropSample(at simtime.Time) bool
	// BurstDelivery re-times a report: when the second return is true the
	// report is held and delivered at the returned instant instead (batched
	// delivery, as when an overloaded input thread drains its queue in
	// bursts).
	BurstDelivery(at simtime.Time) (simtime.Time, bool)
}

// Perturb applies delivery faults to a digitizer stream: dropped reports
// vanish, burst-held reports move to their batch-drain instant (keeping
// their original Value — the fingertip was where it was, software just
// learned late). The output preserves delivery order; input is unmodified.
func Perturb(samples []Sample, p Perturber) []Sample {
	if p == nil {
		return samples
	}
	out := make([]Sample, 0, len(samples))
	for _, s := range samples {
		if p.DropSample(s.At) {
			continue
		}
		if at, held := p.BurstDelivery(s.At); held {
			s.At = at
		}
		out = append(out, s)
	}
	return out
}

// Swipe is a constant-velocity drag: the fingertip moves from Start by
// Velocity px/s while down, ending at Duration.
type Swipe struct {
	// Start is the initial coordinate in pixels.
	Start float64
	// Velocity is the drag speed in pixels/second.
	Velocity float64
	// Duration is how long the fingertip stays on the glass.
	Duration simtime.Duration
}

// Value implements Trajectory.
func (s Swipe) Value(t simtime.Time) float64 {
	tt := simtime.Duration(t)
	if tt > s.Duration {
		tt = s.Duration
	}
	return s.Start + s.Velocity*tt.Seconds()
}

// Down implements Trajectory.
func (s Swipe) Down(t simtime.Time) bool { return simtime.Duration(t) <= s.Duration }

// End implements Trajectory.
func (s Swipe) End() simtime.Time { return simtime.Time(s.Duration) }

// Fling is a drag that releases into friction-decelerated scrolling: the
// classic list fling. While down it behaves like a swipe; after release the
// velocity decays exponentially with the given friction.
type Fling struct {
	// Start is the initial coordinate.
	Start float64
	// Velocity is the drag (and initial fling) speed in pixels/second.
	Velocity float64
	// DownFor is the drag duration before release.
	DownFor simtime.Duration
	// Friction is the exponential decay rate (1/s); Android's scroller
	// uses ≈ 2–4.
	Friction float64
	// Settle is how long after release the fling is tracked.
	Settle simtime.Duration
}

// Value implements Trajectory.
func (f Fling) Value(t simtime.Time) float64 {
	tt := simtime.Duration(t)
	if tt <= f.DownFor {
		return f.Start + f.Velocity*tt.Seconds()
	}
	atRelease := f.Start + f.Velocity*f.DownFor.Seconds()
	dt := (tt - f.DownFor).Seconds()
	if f.Friction <= 0 {
		return atRelease + f.Velocity*dt
	}
	// Integral of v·e^(−k·t): v/k · (1 − e^(−k·t)).
	return atRelease + f.Velocity/f.Friction*(1-math.Exp(-f.Friction*dt))
}

// Down implements Trajectory.
func (f Fling) Down(t simtime.Time) bool { return simtime.Duration(t) <= f.DownFor }

// End implements Trajectory.
func (f Fling) End() simtime.Time { return simtime.Time(f.DownFor + f.Settle) }

// Pinch is a two-finger zoom: the inter-fingertip distance grows from
// StartDistance at RatePxPerSec, with a sinusoidal tremor capturing how
// human fingers wobble (the reason ZDP fits a curve instead of taking the
// last sample).
type Pinch struct {
	// StartDistance is the initial fingertip separation in pixels.
	StartDistance float64
	// RatePxPerSec is the mean separation speed.
	RatePxPerSec float64
	// TremorAmp and TremorHz shape the wobble.
	TremorAmp, TremorHz float64
	// Duration is how long both fingers stay down.
	Duration simtime.Duration
}

// Value implements Trajectory.
func (p Pinch) Value(t simtime.Time) float64 {
	tt := simtime.Duration(t)
	if tt > p.Duration {
		tt = p.Duration
	}
	s := tt.Seconds()
	return p.StartDistance + p.RatePxPerSec*s + p.TremorAmp*math.Sin(2*math.Pi*p.TremorHz*s)
}

// Down implements Trajectory.
func (p Pinch) Down(t simtime.Time) bool { return simtime.Duration(t) <= p.Duration }

// End implements Trajectory.
func (p Pinch) End() simtime.Time { return simtime.Time(p.Duration) }
