//go:build race

package core

// raceEnabled drops the dense-deployment golden cases under the race
// detector: they run single-goroutine schedulers, so instrumentation only
// multiplies their cost without checking any sharing.
const raceEnabled = true
