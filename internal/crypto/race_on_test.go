//go:build race

package crypto

// raceDetector reports whether the race detector is on.
const raceDetector = true
