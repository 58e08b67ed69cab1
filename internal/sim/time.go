// Package sim provides the deterministic discrete-event simulation kernel
// underneath the DECOS cluster simulator: simulated time, an event scheduler
// with stable ordering, and per-subsystem random number streams.
//
// All of the higher layers (the time-triggered core network, the virtual
// networks, the fault injector and the diagnostic subsystem) are driven by a
// single Scheduler instance, so an entire cluster run is a pure function of
// its scenario configuration and master seed.
package sim

import "fmt"

// Time is a point in simulated time, expressed in microseconds since the
// start of the run. Microsecond granularity is sufficient to resolve TDMA
// slots (hundreds of microseconds) while keeping 64-bit arithmetic exact for
// runs that span simulated years (2^63 µs ≈ 292 000 years).
type Time int64

// Duration is a span of simulated time in microseconds.
type Duration int64

// Common durations, mirroring the time package but in simulated microseconds.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
	Minute      Duration = 60 * Second
	Hour        Duration = 60 * Minute
	Day         Duration = 24 * Hour
	Year        Duration = 8766 * Hour // 365.25 days, the FIT convention
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Micros returns the time as an integer microsecond count.
func (t Time) Micros() int64 { return int64(t) }

// Seconds returns the time in seconds as a float, for reporting.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Hours returns the time in hours as a float, for reliability math.
func (t Time) Hours() float64 { return float64(t) / float64(Hour) }

func (t Time) String() string {
	switch {
	case t < Time(Millisecond):
		return fmt.Sprintf("%dµs", int64(t))
	case t < Time(Second):
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t < Time(Hour):
		return fmt.Sprintf("%.3fs", t.Seconds())
	default:
		return fmt.Sprintf("%.2fh", t.Hours())
	}
}

// Micros returns the duration as an integer microsecond count.
func (d Duration) Micros() int64 { return int64(d) }

// Hours returns the duration in hours.
func (d Duration) Hours() float64 { return float64(d) / float64(Hour) }

func (d Duration) String() string { return Time(d).String() }

// DurationFromHours converts a floating-point hour count to a Duration,
// rounding to the nearest microsecond. Used by the reliability models that
// work in hours (the FIT convention).
func DurationFromHours(h float64) Duration {
	return Duration(h*float64(Hour) + 0.5)
}
