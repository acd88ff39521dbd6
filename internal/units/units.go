// Package units provides the byte-size, frequency, and time-conversion
// helpers shared by the simulator packages.
//
// The simulator is cycle-based: every latency and occupancy is expressed in
// core clock cycles. This package converts between cycles, nanoseconds, and
// bandwidth figures at a given core frequency so that calibration targets
// written in datasheet units (ns, GB/s) translate exactly into model
// parameters.
package units

import "fmt"

// Byte sizes.
const (
	KiB int64 = 1 << 10
	MiB int64 = 1 << 20
	GiB int64 = 1 << 30
)

// GHz is one gigahertz, the unit the modeled clock rates are given in.
const GHz float64 = 1e9

// GB is the decimal gigabyte used in bandwidth figures (GB/s), matching how
// the paper reports LMbench bandwidths.
const GB float64 = 1e9

// NsPerSecond converts between seconds and nanoseconds; derived rates such
// as bytes/ns -> GB/s should use this instead of a literal 1e9.
const NsPerSecond float64 = 1e9

// Frequency is a clock rate in Hz.
type Frequency float64

// Cycles converts a duration in nanoseconds to whole clock cycles at f,
// rounding to nearest. A sub-cycle duration yields at least one cycle so
// that no modeled structure is infinitely fast.
func (f Frequency) Cycles(ns float64) int64 {
	c := int64(ns*float64(f)/1e9 + 0.5)
	if c < 1 {
		return 1
	}
	return c
}

// Nanoseconds converts a cycle count at f into nanoseconds.
func (f Frequency) Nanoseconds(cycles int64) float64 {
	return float64(cycles) / float64(f) * 1e9
}

// BytesPerCycle converts a bandwidth in bytes/second into bytes per core
// cycle at f.
func (f Frequency) BytesPerCycle(bytesPerSecond float64) float64 {
	return bytesPerSecond / float64(f)
}

// OccupancyCycles returns the number of core cycles a transfer of size bytes
// occupies a link of the given bandwidth (bytes/second), rounded up and at
// least one.
func (f Frequency) OccupancyCycles(size int64, bytesPerSecond float64) int64 {
	bpc := f.BytesPerCycle(bytesPerSecond)
	if bpc <= 0 {
		panic("units: non-positive bandwidth")
	}
	c := int64(float64(size)/bpc + 0.999999)
	if c < 1 {
		return 1
	}
	return c
}

// HumanBytes formats a byte count with a binary-prefix unit, e.g. "16KiB".
func HumanBytes(n int64) string {
	switch {
	case n >= GiB && n%GiB == 0:
		return fmt.Sprintf("%dGiB", n/GiB)
	case n >= MiB && n%MiB == 0:
		return fmt.Sprintf("%dMiB", n/MiB)
	case n >= KiB && n%KiB == 0:
		return fmt.Sprintf("%dKiB", n/KiB)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int64) bool {
	return n > 0 && n&(n-1) == 0
}

// Log2 returns the base-2 logarithm of a positive power of two.
// It panics if n is not a positive power of two.
func Log2(n int64) uint {
	if !IsPow2(n) {
		panic(fmt.Sprintf("units: Log2 of non-power-of-two %d", n))
	}
	var l uint
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
