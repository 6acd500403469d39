// Package sim provides the deterministic simulation substrate shared by the
// rest of the Rio reproduction: a simulated clock, a seeded pseudo-random
// number generator, and Mix, which derives a seed from coordinates.
//
// Everything in the simulator that would be non-deterministic on real
// hardware — time, scheduling, fault placement, workload content — is driven
// from this package so that every crash test and every performance run is
// exactly reproducible from its seed.
package sim

import "fmt"

// Duration is simulated time in nanoseconds. It mirrors time.Duration but is
// a distinct type so that simulated time can never be accidentally mixed
// with wall-clock time.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
)

// String formats the duration with an adaptive unit.
func (d Duration) String() string {
	switch {
	case d < 0:
		return "-" + (-d).String()
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.3gus", float64(d)/float64(Microsecond))
	case d < Second:
		return fmt.Sprintf("%.3gms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.4gs", float64(d)/float64(Second))
	}
}

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Time is an absolute simulated timestamp (nanoseconds since boot).
type Time int64

// Add returns the time shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Clock is a simulated clock. The zero value is a clock at time zero.
//
// The clock only moves when the simulation advances it; there is no
// background ticking. Components that model latency (the disk, the CPU cost
// model) advance the clock explicitly.
type Clock struct {
	now Time
}

// NewClock returns a clock starting at time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current simulated time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d. Advancing by a negative duration
// panics: simulated time is monotonic.
func (c *Clock) Advance(d Duration) {
	if d < 0 {
		panic("sim: clock advanced backwards")
	}
	c.now += Time(d)
}

// AdvanceTo moves the clock forward to t if t is in the future; it is a
// no-op otherwise.
func (c *Clock) AdvanceTo(t Time) {
	if t > c.now {
		c.now = t
	}
}
