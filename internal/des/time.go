package des

import "fmt"

// Time is a simulated timestamp or duration in nanoseconds.
//
// The zero Time is the simulation epoch. Durations and timestamps share the
// type, mirroring time.Duration ergonomics without the ambient wall clock.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Microseconds converts a floating-point microsecond count to a Time,
// rounding to the nearest nanosecond.
func Microseconds(us float64) Time {
	return Time(us*1e3 + 0.5)
}

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// String formats t with an adaptive unit, e.g. "7.6µs" or "1.2ms".
func (t Time) String() string {
	switch {
	case t < 10*Microsecond:
		return fmt.Sprintf("%.3gµs", t.Micros())
	case t < 10*Millisecond:
		return fmt.Sprintf("%.4gµs", t.Micros())
	case t < 10*Second:
		return fmt.Sprintf("%.4gms", float64(t)/1e6)
	default:
		return fmt.Sprintf("%.4gs", t.Seconds())
	}
}
