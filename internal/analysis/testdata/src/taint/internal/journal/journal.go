// Package journal sits on the wall-clock allowlist: progress reporting is
// allowed to observe real time, so nothing here may be flagged.
package journal

import "time"

// Stamp returns the current wall-clock time.
func Stamp() time.Time {
	return time.Now()
}
