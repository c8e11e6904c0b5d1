// Package des implements a deterministic discrete-event simulation kernel.
//
// Simulated time is a 64-bit count of nanoseconds. Events scheduled for the
// same instant fire in the order of their scheduling sequence numbers, so a
// simulation run is exactly reproducible regardless of host scheduling or map
// iteration order.
package des

import (
	"fmt"
	"time"
)

// Time is an instant in simulated time, counted in nanoseconds from the start
// of the simulation. The zero Time is the simulation epoch.
type Time int64

// Common simulated-time unit constants.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Never is a sentinel Time greater than any reachable simulation instant.
const Never = Time(1<<63 - 1)

// Duration converts t into a time.Duration relative to the simulation epoch.
func (t Time) Duration() time.Duration { return time.Duration(int64(t)) }

// Seconds reports t as floating-point seconds since the epoch.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds reports t as floating-point milliseconds since the epoch.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Add returns t shifted by the duration d, saturating at Never.
func (t Time) Add(d Time) Time {
	if t == Never || d == Never {
		return Never
	}
	s := t + d
	if d > 0 && s < t { // overflow
		return Never
	}
	return s
}

// String renders t in an engineering-friendly form ("12.345ms").
func (t Time) String() string {
	if t == Never {
		return "never"
	}
	return t.Duration().String()
}

// FromSeconds converts floating-point seconds into simulated Time, rounding
// to the nearest nanosecond and saturating at Never, as Add does: durations
// of about 9.22e9 s (292 years) and beyond do not fit the nanosecond clock,
// and converting them unchecked would wrap to negative instants.
func FromSeconds(s float64) Time {
	if s < 0 {
		panic(fmt.Sprintf("des: negative duration %v", s))
	}
	ns := float64(s*float64(Second)) + 0.5
	if ns >= float64(Never) { // float64(Never) rounds up to 2⁶³
		return Never
	}
	return Time(ns)
}

// FromMillis converts floating-point milliseconds into simulated Time.
func FromMillis(ms float64) Time { return FromSeconds(ms / 1e3) }

// FromMicros converts floating-point microseconds into simulated Time.
func FromMicros(us float64) Time { return FromSeconds(us / 1e6) }
