// Package simtime provides the virtual time base used throughout the
// simulator. All simulation timestamps are nanoseconds on a virtual clock
// that starts at zero; durations are plain nanosecond counts.
//
// The package deliberately mirrors the shape of the standard library's
// time.Time / time.Duration split so that code reads naturally, but it is a
// distinct type universe: simulated instants must never be confused with
// wall-clock readings.
package simtime

import (
	"fmt"
	"math"
)

// Time is an instant on the virtual simulation clock, in nanoseconds since
// the simulation epoch (t = 0).
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Never is a sentinel instant later than any reachable simulation time.
const Never Time = math.MaxInt64

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t−u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// Milliseconds returns the instant expressed in (fractional) milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds returns the instant expressed in (fractional) seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the instant as milliseconds with microsecond precision.
func (t Time) String() string {
	if t == Never {
		return "never"
	}
	return fmt.Sprintf("%.3fms", t.Milliseconds())
}

// Milliseconds returns the duration expressed in (fractional) milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Seconds returns the duration expressed in (fractional) seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the duration as milliseconds with microsecond precision.
func (d Duration) String() string { return fmt.Sprintf("%.3fms", d.Milliseconds()) }

// FromMillis converts a millisecond count to a Duration.
func FromMillis(ms float64) Duration { return Duration(ms * float64(Millisecond)) }

// FromMicros converts a microsecond count to a Duration.
func FromMicros(us float64) Duration { return Duration(us * float64(Microsecond)) }

// FromSeconds converts a second count to a Duration.
func FromSeconds(s float64) Duration { return Duration(s * float64(Second)) }

// PeriodForHz returns the refresh period of a display running at the given
// rate, e.g. 60 Hz → 16.667 ms.
func PeriodForHz(hz int) Duration {
	if hz <= 0 {
		panic(fmt.Sprintf("simtime: non-positive refresh rate %d", hz))
	}
	return Duration(int64(Second) / int64(hz))
}

// HzForPeriod returns the (rounded) refresh rate whose period is d.
func HzForPeriod(d Duration) int {
	if d <= 0 {
		panic(fmt.Sprintf("simtime: non-positive period %d", int64(d)))
	}
	return int((int64(Second) + int64(d)/2) / int64(d))
}

// AlignUp returns the earliest instant ≥ t that lands on the grid defined by
// phase + k·period (k ∈ ℤ, k ≥ 0).
func AlignUp(t Time, period Duration, phase Time) Time {
	if period <= 0 {
		panic("simtime: non-positive period")
	}
	if t <= phase {
		return phase
	}
	off := int64(t - phase)
	p := int64(period)
	k := (off + p - 1) / p
	return phase + Time(k*p)
}

// Clamp limits d to the inclusive range [lo, hi].
func Clamp(d, lo, hi Duration) Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}
